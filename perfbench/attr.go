package main

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// layer is a module of the stack that emits spans.
type layer int

const (
	layerCrosslib layer = iota
	layerVFS
	layerPagecache
	layerBlockdev
	numLayers
)

var layerNames = [numLayers]string{"crosslib", "vfs", "pagecache", "blockdev"}

// spanLayer maps a span to the package that emitted it, by the span-name
// prefix each package uses. The root span the benchmark opens is named
// after the library operation it wraps ("lib.read", "lib.ring_enter"),
// so its self time is the library's. vfs emits the ring lane wait as
// "ring.queue_wait". An unknown prefix is an error: a new span family
// must be assigned a layer before its time can be attributed.
func spanLayer(name string) (layer, error) {
	prefix, _, _ := strings.Cut(name, ".")
	switch prefix {
	case "lib":
		return layerCrosslib, nil
	case "vfs", "ring":
		return layerVFS, nil
	case "cache":
		return layerPagecache, nil
	case "dev":
		return layerBlockdev, nil
	}
	return 0, fmt.Errorf("span %q: no layer for prefix %q", name, prefix)
}

// attribution accumulates exclusive virtual self time over the root
// spans of a traced pass, once by layer and once by critical-path
// category, plus the ring reap waits, which belong to no layer.
type attribution struct {
	layers   [numLayers]int64
	cats     map[string]int64
	reapWait int64
	// total is the virtual time of every call the benchmark made into
	// the system, measured on the caller's timeline; both partitions
	// must sum to it exactly.
	total int64
	// readRoots and lateRoots count root spans that carried a read, and
	// those of them that waited on in-flight prefetch I/O.
	readRoots, lateRoots int64
}

func newAttribution() *attribution { return &attribution{cats: map[string]int64{}} }

// addRoot attributes one finished root span whose call advanced the
// caller's timeline by d.
func (a *attribution) addRoot(root *telemetry.Span, d simtime.Duration, read bool) error {
	if root.Duration() != d {
		return fmt.Errorf("root %s lasts %v, call advanced the timeline %v", root.Name(), root.Duration(), d)
	}
	var byLayer [numLayers]int64
	if err := layerSelfTime(root, root.StartTime(), root.EndTime(), &byLayer); err != nil {
		return err
	}
	var sum int64
	for l, ns := range byLayer {
		a.layers[l] += ns
		sum += ns
	}
	late := false
	var catSum int64
	for _, sl := range telemetry.CriticalPath(root) {
		a.cats[sl.Name] += sl.Ns
		catSum += sl.Ns
		if sl.Category == telemetry.CatInflight {
			late = true
		}
	}
	if sum != int64(d) || catSum != int64(d) {
		return fmt.Errorf("root %s: layers sum %d ns, categories %d ns, duration %d ns",
			root.Name(), sum, catSum, int64(d))
	}
	a.total += int64(d)
	if read {
		a.readRoots++
		if late {
			a.lateRoots++
		}
	}
	return nil
}

// addReap books a ring reap wait.
func (a *attribution) addReap(d simtime.Duration) {
	a.reapWait += int64(d)
	a.total += int64(d)
}

// check verifies that each partition sums exactly to the measured
// virtual latency of the pass (calls plus reap waits).
func (a *attribution) check(measured int64) error {
	layers := a.reapWait
	for _, ns := range a.layers {
		layers += ns
	}
	cats := a.reapWait
	for _, ns := range a.cats {
		cats += ns
	}
	if layers != measured || cats != measured || a.total != measured {
		return fmt.Errorf("attribution: layers %d ns, categories %d ns, roots %d ns, measured %d ns",
			layers, cats, a.total, measured)
	}
	return nil
}

// layerSelfTime charges s's window [lo, hi) to layers by exclusive
// attribution, the same rule telemetry.CriticalPath applies to
// categories: a sub-window covered by a child goes to the child (children
// clamped to the parent's window, overlapping siblings clamped to the
// running cursor, earlier start wins), the rest to s's own layer.
func layerSelfTime(s *telemetry.Span, lo, hi simtime.Time, acct *[numLayers]int64) error {
	if hi <= lo {
		return nil
	}
	own, err := spanLayer(s.Name())
	if err != nil {
		return err
	}
	children := s.Children()
	if !sort.SliceIsSorted(children, func(i, j int) bool { return children[i].StartTime() < children[j].StartTime() }) {
		children = append(children[:0:0], children...)
		sort.SliceStable(children, func(i, j int) bool { return children[i].StartTime() < children[j].StartTime() })
	}
	cursor := lo
	for _, c := range children {
		cs, ce := c.StartTime(), c.EndTime()
		if cs < cursor {
			cs = cursor
		}
		if ce > hi {
			ce = hi
		}
		if ce <= cs {
			continue
		}
		acct[own] += int64(cs.Sub(cursor))
		if err := layerSelfTime(c, cs, ce, acct); err != nil {
			return err
		}
		cursor = ce
	}
	acct[own] += int64(hi.Sub(cursor))
	return nil
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
