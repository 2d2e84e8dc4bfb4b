package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"runtime/pprof"
	"strings"
	"time"
)

// buildDir holds the benchmark's build output and its temporary CPU
// profile, inside the checkout it runs from.
const buildDir = ".bench_build"

// cpuProfile is the traced run's CPU profile.
type cpuProfile struct {
	f *os.File
}

func startCPUProfile() (*cpuProfile, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.CreateTemp(buildDir, "perfbench-cpu-*.pprof")
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		os.Remove(f.Name())
		return nil, err
	}
	return &cpuProfile{f: f}, nil
}

// stop ends the profile and buckets the samples taken inside calls into
// the system (goroutine label sut=call) by package, with the toolchain's
// pprof.
func (c *cpuProfile) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	if err := c.f.Close(); err != nil {
		return nil, err
	}
	out, err := exec.Command("go", "tool", "pprof", "-traces", "-tagfocus=sut=call", c.f.Name()).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return bucketTraces(out)
}

// remove deletes the profile file.
func (c *cpuProfile) remove() { os.Remove(c.f.Name()) }

// bucketTraces reads `pprof -traces` output: one block per distinct
// stack, separated by dashed lines, whose first line holds the sample
// value and the leaf function and whose next lines hold the callers.
// Each stack is charged to one package: the leaf's, if it is the Go
// runtime or a package of this repository; otherwise (a standard-library
// helper such as sync or sort) the nearest caller that is. The result is
// each package's share of all samples.
func bucketTraces(out []byte) (map[string]float64, error) {
	shares := map[string]float64{}
	var total float64
	var value float64
	var stack []string
	flush := func() {
		if len(stack) > 0 {
			shares[stackBucket(stack)] += value
			total += value
		}
		stack = stack[:0]
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	inBody := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBody = true
			continue
		}
		if !inBody {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 || strings.HasSuffix(fields[0], ":") {
			// Blank line or a label line ("sut:call").
			continue
		}
		if len(stack) == 0 {
			if len(fields) < 2 {
				return nil, fmt.Errorf("pprof traces: sample line %q", line)
			}
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				return nil, fmt.Errorf("pprof traces: sample value %q: %w", fields[0], err)
			}
			value = d.Seconds()
			stack = append(stack, fields[1])
			continue
		}
		stack = append(stack, fields[0])
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if total == 0 {
		return nil, fmt.Errorf("pprof traces: no samples inside calls")
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares, nil
}

// stackBucket names the package a stack (leaf first) is charged to.
func stackBucket(stack []string) string {
	for i, fn := range stack {
		pkg := funcPackage(fn)
		switch {
		case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
			if i == 0 {
				return "runtime"
			}
		case strings.HasPrefix(pkg, "repro/internal/"):
			return strings.TrimPrefix(pkg, "repro/internal/")
		case pkg == "repro":
			return "crossprefetch"
		case pkg == "main":
			return "benchmark"
		}
	}
	return "other"
}

// funcPackage is the import path of a symbolized Go function name, e.g.
// "repro/internal/fs" for "repro/internal/fs.(*Inode).ReadAt".
func funcPackage(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}
