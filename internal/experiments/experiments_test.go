package experiments

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

// quickOpts shrinks every experiment to smoke-test size.
func quickOpts() Options { return Options{Quick: true, Seed: 1} }

func TestRegistryComplete(t *testing.T) {
	// Every table and figure from the paper's evaluation must be present.
	want := []string{"fig2", "fig5", "fig6", "tab4", "fig7a", "fig7b",
		"fig7c", "fig7d", "tab5", "fig8a", "fig8b", "fig9a", "fig9b", "fig10"}
	for _, id := range want {
		if _, err := Get(id); err != nil {
			t.Errorf("missing experiment %s: %v", id, err)
		}
		if Describe(id) == "" {
			t.Errorf("experiment %s has no description", id)
		}
	}
	// Extra registered experiments (ablations) are allowed beyond the
	// paper's core set.
	if len(IDs()) < len(want) {
		t.Errorf("registry has %d entries, want >= %d", len(IDs()), len(want))
	}
	if _, err := Get("nope"); err == nil {
		t.Error("unknown ID should error")
	}
}

// colValue looks up a row by leading-column values and returns the named column.
func colValue(t *testing.T, tbl *Table, col string, match ...string) float64 {
	t.Helper()
	v, err := value(tbl, col, match)
	if err != nil {
		t.Fatalf("%s: %v", tbl.ID, err)
	}
	return v
}

func runQuick(t *testing.T, id string) *Table {
	t.Helper()
	run, err := Get(id)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := run(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) == 0 {
		t.Fatalf("%s produced no rows", id)
	}
	for _, row := range tbl.Rows {
		if len(row) != len(tbl.Columns) {
			t.Fatalf("%s: ragged row %v", id, row)
		}
	}
	return tbl
}

func TestFig5Quick(t *testing.T) {
	tbl := runQuick(t, "fig5")
	// Table 3 shape: cross-layered prefetching cuts shared-rand misses.
	app := colValue(t, tbl, "miss%", "shared-rand", "APPonly")
	cross := colValue(t, tbl, "miss%", "shared-rand", "CrossP[+predict]")
	if cross >= app {
		t.Errorf("shared-rand miss%%: CrossP %.1f should be < APPonly %.1f", cross, app)
	}
}

func TestFig6Quick(t *testing.T) {
	tbl := runQuick(t, "fig6")
	if v := colValue(t, tbl, "write-MB/s", "4", "OSonly"); v <= 0 {
		t.Errorf("no write throughput: %v", v)
	}
}

func TestTable4Quick(t *testing.T) {
	tbl := runQuick(t, "tab4")
	// Table 4 shape: APPonly (madvise RANDOM) is the slowest sequential.
	app := colValue(t, tbl, "MB/s", "readseq", "APPonly")
	cross := colValue(t, tbl, "MB/s", "readseq", "CrossP[+predict+opt]")
	if app >= cross {
		t.Errorf("mmap readseq: APPonly %.1f should trail CrossP %.1f", app, cross)
	}
}

func TestFig2Quick(t *testing.T) {
	tbl := runQuick(t, "fig2")
	app := colValue(t, tbl, "kops/s", "APPonly")
	cross := colValue(t, tbl, "kops/s", "CrossP[+predict+opt]")
	if cross <= app {
		t.Errorf("fig2: CrossP %.0f kops should beat APPonly %.0f", cross, app)
	}
}

func TestFig7aQuick(t *testing.T)  { runQuick(t, "fig7a") }
func TestFig7bQuick(t *testing.T)  { runQuick(t, "fig7b") }
func TestFig7cQuick(t *testing.T)  { runQuick(t, "fig7c") }
func TestFig7dQuick(t *testing.T)  { runQuick(t, "fig7d") }
func TestTable5Quick(t *testing.T) { runQuick(t, "tab5") }
func TestFig8aQuick(t *testing.T)  { runQuick(t, "fig8a") }
func TestFig10Quick(t *testing.T)  { runQuick(t, "fig10") }

// TestChaosQuick runs the fault-injection sweep; the runner itself
// asserts byte-correctness, audit reconciliation, breaker trip +
// recovery, bounded slowdown, and schedule determinism.
func TestChaosQuick(t *testing.T) {
	tbl := runQuick(t, "chaos")
	if len(tbl.Rows) != 3 {
		t.Fatalf("chaos produced %d rows, want 3", len(tbl.Rows))
	}
	if got := colValue(t, tbl, "trips", "transient10"); got < 1 {
		t.Fatalf("transient10 breaker trips = %v, want >= 1", got)
	}
	if got := colValue(t, tbl, "recoveries", "transient10"); got < 1 {
		t.Fatalf("transient10 breaker recoveries = %v, want >= 1", got)
	}
	if got := colValue(t, tbl, "read-errs", "persistent-range"); got < 1 {
		t.Fatalf("persistent-range read errors = %v, want >= 1", got)
	}
}

func TestFig8bQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	runQuick(t, "fig8b")
}

func TestFig9aQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	runQuick(t, "fig9a")
}

func TestFig9bQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	runQuick(t, "fig9b")
}

func TestAblationQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	runQuick(t, "ablate")
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		ID:      "x",
		Title:   "demo",
		Columns: []string{"a", "b"},
	}
	tbl.AddRow("1", "two")
	tbl.AddRow("longer", "3")
	tbl.Note("n=%d", 7)

	var buf bytes.Buffer
	tbl.Print(&buf)
	out := buf.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "note: n=7") {
		t.Fatalf("bad text render:\n%s", out)
	}

	buf.Reset()
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); !strings.HasPrefix(got, "a,b\n1,two\n") {
		t.Fatalf("bad csv:\n%s", got)
	}
}

func TestCSVEscaping(t *testing.T) {
	tbl := &Table{ID: "x", Columns: []string{"c"}}
	tbl.AddRow(`va"l,ue`)
	var buf bytes.Buffer
	tbl.WriteCSV(&buf)
	if !strings.Contains(buf.String(), `"va""l,ue"`) {
		t.Fatalf("csv escaping wrong: %s", buf.String())
	}
}

// auditedRun is one quick run of an experiment with the telemetry
// switch on, and the systems it registered.
type auditedRun struct {
	tbl     *Table
	systems []TelemetryResult
}

var (
	auditedMu   sync.Mutex
	auditedRuns = map[string]*auditedRun{}
)

// runAudited runs experiment id at quick scale with telemetry on, once
// per test binary: the post-paper shape tests and the telemetry drain
// test share the run.
func runAudited(t *testing.T, id string) *auditedRun {
	t.Helper()
	auditedMu.Lock()
	defer auditedMu.Unlock()
	if r := auditedRuns[id]; r != nil {
		return r
	}
	EnableTelemetry(true)
	defer EnableTelemetry(false)
	r := &auditedRun{tbl: runQuick(t, id), systems: DrainTelemetry()}
	if got := DrainTelemetry(); len(got) != 0 {
		t.Fatalf("drain did not clear the registry: %d left", len(got))
	}
	auditedRuns[id] = r
	return r
}

// TestTelemetryDrainAuditsEverySystem runs experiments with the
// telemetry switch on: every one must register at least one system, and
// every registered system must pass the audit.
func TestTelemetryDrainAuditsEverySystem(t *testing.T) {
	for _, id := range []string{"fig5", "serve", "overload", "score", "predict", "tier"} {
		t.Run(id, func(t *testing.T) {
			r := runAudited(t, id)
			if len(r.systems) == 0 {
				t.Fatal("no systems registered with telemetry enabled")
			}
			for _, sys := range r.systems {
				if sys.Audit != nil {
					t.Errorf("%s: %v", sys.Label, sys.Audit)
				}
				if sys.Snapshot == nil {
					t.Errorf("%s: nil snapshot", sys.Label)
				}
			}
		})
	}
}

func TestTelemetryDisabledRegistersNothing(t *testing.T) {
	runQuick(t, "fig6")
	if got := DrainTelemetry(); len(got) != 0 {
		t.Fatalf("systems registered while telemetry disabled: %d", len(got))
	}
}

// The post-paper experiments check their own contracts (cells.go): each
// quick run byte-verifies every read, audits every system, reruns the
// deterministic cells against their digests, and fails on any violated
// contract. These tests pin the table shape; they share their run with
// the telemetry drain test.

func TestServeQuick(t *testing.T) {
	if got := len(runAudited(t, "serve").tbl.Rows); got != 4 {
		t.Fatalf("serve produced %d rows, want 4", got)
	}
}

func TestOverloadQuick(t *testing.T) {
	if got := len(runAudited(t, "overload").tbl.Rows); got != 5 {
		t.Fatalf("overload produced %d rows, want 5", got)
	}
}

func TestScoreQuick(t *testing.T) {
	if got := len(runAudited(t, "score").tbl.Rows); got != 4 {
		t.Fatalf("score produced %d rows, want 4", got)
	}
}

func TestPredictQuick(t *testing.T) {
	if got := len(runAudited(t, "predict").tbl.Rows); got != 6 {
		t.Fatalf("predict produced %d rows, want 6", got)
	}
}

func TestTierQuick(t *testing.T) {
	if got := len(runAudited(t, "tier").tbl.Rows); got != 18 {
		t.Fatalf("tier produced %d rows, want 18", got)
	}
}

// TestContractsRejectViolations shows the checker rejects a table that
// violates each comparator kind, and accepts the same contracts once the
// table satisfies them.
func TestContractsRejectViolations(t *testing.T) {
	tbl := &Table{ID: "x", Columns: []string{"cell", "v", "arm"}}
	tbl.AddRow("a", "1.00x", "counter")
	tbl.AddRow("b", "2.0", "mithril")
	for _, tc := range []struct {
		ok, bad contract
	}{
		{contract{col: "v", cell: key("b"), op: ge, ref: key("a"), factor: 2},
			contract{col: "v", cell: key("b"), op: ge, ref: key("a"), factor: 2, offset: 0.1}},
		{contract{col: "v", cell: key("b"), op: gt, offset: 1.9},
			contract{col: "v", cell: key("b"), op: gt, offset: 2}},
		{contract{col: "v", cell: key("a"), op: le, ref: key("b"), offset: -1},
			contract{col: "v", cell: key("a"), op: le, ref: key("b"), factor: 0.4}},
		{contract{col: "v", cell: key("a"), op: lt, ref: key("b")},
			contract{col: "v", cell: key("a"), op: lt, offset: 1}},
		{contract{col: "v", cell: key("a"), op: eq, offset: 1},
			contract{col: "v", cell: key("a"), op: eq, ref: key("b")}},
		{contract{col: "arm", cell: key("b"), is: "mithril"},
			contract{col: "arm", cell: key("a"), is: "mithril"}},
	} {
		if err := checkContracts(tbl, []contract{tc.ok}); err != nil {
			t.Errorf("%+v rejected a satisfying table: %v", tc.ok, err)
		}
		if err := checkContracts(tbl, []contract{tc.bad}); err == nil {
			t.Errorf("%+v accepted a violating table", tc.bad)
		}
	}
	for _, bad := range []contract{
		{col: "nope", cell: key("a"), op: eq},
		{col: "v", cell: key("c"), op: eq},
		{col: "v", cell: key("a"), op: eq, ref: key("c")},
		{col: "arm", cell: key("a"), op: eq},
	} {
		if err := checkContracts(tbl, []contract{bad}); err == nil {
			t.Errorf("%+v: missing or non-numeric cell accepted", bad)
		}
	}
}
