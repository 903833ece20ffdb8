package sim

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/vlog"
	"repro/internal/vlog/elab"
)

// panickingDesign is a hand-built design whose only process trips a
// runtime panic: its if condition is a nil identifier, which no parser or
// elaborator would produce.
func panickingDesign() *elab.Design {
	top := &elab.Inst{Path: "tb"}
	body := &vlog.If{Cond: (*vlog.Ident)(nil), Then: &vlog.Null{}}
	return &elab.Design{Top: top, Procs: []*elab.Proc{{Kind: elab.ProcInitial, Body: body, Scope: top}}}
}

func wantInternalError(t *testing.T, err error) *InternalError {
	t.Helper()
	var ie *InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %v (%T), want *InternalError", err, err)
	}
	if ie.Value == nil || len(ie.Stack) == 0 {
		t.Fatalf("InternalError missing value or stack: %+v", ie)
	}
	return ie
}

// TestProcessPanicBecomesInternalError: a panic inside a process body is
// returned by Run, under both engines, instead of escaping on a stack
// nothing recovers.
func TestProcessPanicBecomesInternalError(t *testing.T) {
	for _, interpret := range []bool{false, true} {
		_, err := New(panickingDesign(), Options{Interpret: interpret}).Run()
		ie := wantInternalError(t, err)
		if _, ok := ie.Value.(runtime.Error); !ok {
			t.Errorf("interpret=%v: Value = %v (%T), want a runtime.Error", interpret, ie.Value, ie.Value)
		}
		// the stack is the process's, where the panic was recovered
		if !strings.Contains(string(ie.Stack), "(*process).exec") {
			t.Errorf("interpret=%v: stack does not show the process:\n%s", interpret, ie.Stack)
		}
	}
}

// TestSchedulerPanicBecomesInternalError: the same contract for a panic
// raised in scheduler context, here by a declaration initializer.
func TestSchedulerPanicBecomesInternalError(t *testing.T) {
	top := &elab.Inst{Path: "tb"}
	d := &elab.Design{Top: top, RegInits: []*elab.RegInit{{Scope: top, Name: "r", Value: (*vlog.Ident)(nil)}}}
	_, err := New(d, Options{}).Run()
	wantInternalError(t, err)
}

// TestNoCoroutineLeak: every way a run can end releases the coroutines of
// its processes, including always blocks still suspended on an event.
func TestNoCoroutineLeak(t *testing.T) {
	const blocked = `
  reg clk; integer n;
  initial begin clk = 0; n = 0; end
  always #5 clk = ~clk;
  always @(posedge clk) n = n + 1;
  always @(negedge clk) n = n + 2;
`
	isRuntimeError := func(err error) bool {
		var re *RuntimeError
		return errors.As(err, &re)
	}
	cases := []struct {
		name  string
		src   string
		endOK func(error) bool
	}{
		{"finish", "module m;" + blocked + "initial #52 $finish;\nendmodule",
			func(err error) bool { return err == nil }},
		{"step-limit", "module m;" + blocked + "initial begin #12; while (1) n = n; end\nendmodule",
			func(err error) bool { return errors.Is(err, ErrStepLimit) }},
		{"runtime-error", "module m;" + blocked + "initial #12;\nalways @(posedge clk) #1;\nalways n = 1;\nendmodule",
			isRuntimeError},
	}
	before := settledGoroutines()
	for _, c := range cases {
		_, err := New(elabTop(t, c.src, "m"), Options{}).Run()
		if !c.endOK(err) {
			t.Fatalf("%s: run ended with err = %v", c.name, err)
		}
		waitGoroutines(t, before, c.name)
	}
	if _, err := New(panickingDesign(), Options{}).Run(); err == nil {
		t.Fatal("panicking design ran clean")
	}
	waitGoroutines(t, before, "internal error")
}

// settledGoroutines returns the goroutine count once it has stopped
// falling: goroutines an earlier test started may still be exiting, and
// counting them in the baseline would make a clean run look like it lost
// some (or hide a leak behind one that exits later).
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
		time.Sleep(20 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			return n
		}
		n = m
	}
	return n
}

// waitGoroutines fails the test unless the goroutine count comes back to
// at most base within a bounded deadline. A released coroutine may take a
// moment to exit; a leaked one never does, so the check stays strict.
func waitGoroutines(t *testing.T, base int, what string) {
	t.Helper()
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); n > base && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > base {
		t.Fatalf("%s: %d goroutines after the run, %d before", what, n, base)
	}
}
