package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// runCmd executes a subcommand with output captured.
func runCmd(t *testing.T, f func([]string) error, args ...string) string {
	t.Helper()
	var buf bytes.Buffer
	old := stdout
	stdout = &buf
	defer func() { stdout = old }()
	if err := f(args); err != nil {
		t.Fatalf("command failed: %v", err)
	}
	return buf.String()
}

// runCmdErr executes a subcommand expecting an error.
func runCmdErr(t *testing.T, f func([]string) error, args ...string) {
	t.Helper()
	var buf bytes.Buffer
	old := stdout
	stdout = &buf
	defer func() { stdout = old }()
	if err := f(args); err == nil {
		t.Fatalf("command succeeded; want error (args %v)", args)
	}
}

func TestCmdTable1(t *testing.T) {
	out := runCmd(t, cmdTable1, "-n", "2^8", "-d", "1,2", "-trials", "10")
	for _, want := range []string{"Table 1", "n=2^8 d=1", "n=2^8 d=2", "%"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	runCmdErr(t, cmdTable1, "-n", "bogus")
	runCmdErr(t, cmdTable1, "-n", "2^8", "-d", "x")
}

func TestCmdTable1Outputs(t *testing.T) {
	dir := t.TempDir()
	csv := dir + "/t1.csv"
	out := runCmd(t, cmdTable1, "-n", "2^8", "-d", "2", "-trials", "5",
		"-csv", csv, "-svg", dir+"/svg")
	if !strings.Contains(out, "wrote") {
		t.Error("outputs not reported")
	}
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "label,n,m,d,tie") {
		t.Error("CSV header missing")
	}
	svgs, err := os.ReadDir(dir + "/svg")
	if err != nil || len(svgs) != 1 {
		t.Fatalf("svg dir: %v, %d files", err, len(svgs))
	}
}

func TestCmdTable2(t *testing.T) {
	out := runCmd(t, cmdTable2, "-n", "2^8", "-d", "2", "-trials", "5")
	if !strings.Contains(out, "Table 2") || !strings.Contains(out, "torus") {
		t.Errorf("unexpected output: %q", out[:80])
	}
	// Weight-based tie-break path (computes exact areas per trial).
	out = runCmd(t, cmdTable2, "-n", "2^8", "-d", "2", "-trials", "3", "-tiebreak", "smaller")
	if !strings.Contains(out, "smaller") {
		t.Error("tiebreak name not echoed")
	}
	runCmdErr(t, cmdTable2, "-tiebreak", "bogus")
	runCmdErr(t, cmdTable2, "-n", "")
	runCmdErr(t, cmdTable2, "-d", "zz")
}

func TestCmdTable3(t *testing.T) {
	out := runCmd(t, cmdTable3, "-n", "2^8", "-trials", "10")
	for _, want := range []string{"arc-larger", "arc-random", "arc-left", "arc-smaller"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	runCmdErr(t, cmdTable3, "-n", "?")
}

func TestCmdLemma4(t *testing.T) {
	out := runCmd(t, cmdLemma4, "-n", "2^10", "-trials", "20", "-c", "2,4")
	if !strings.Contains(out, "Lemma 4") || !strings.Contains(out, "mean N_c") {
		t.Error("lemma4 output malformed")
	}
	runCmdErr(t, cmdLemma4, "-c", "xx")
}

func TestCmdLemma6(t *testing.T) {
	out := runCmd(t, cmdLemma6, "-n", "2^10", "-trials", "10")
	if !strings.Contains(out, "Lemma 6") {
		t.Error("lemma6 output malformed")
	}
	out = runCmd(t, cmdLemma6, "-n", "2^10", "-trials", "5", "-a", "50,60")
	if !strings.Contains(out, "50") {
		t.Error("explicit a list ignored")
	}
	runCmdErr(t, cmdLemma6, "-a", "oops")
}

func TestCmdLemma8(t *testing.T) {
	out := runCmd(t, cmdLemma8, "-n", "2^8", "-c", "8", "-trials", "2")
	if !strings.Contains(out, "violations") {
		t.Error("lemma8 output malformed")
	}
	runCmdErr(t, cmdLemma8, "-n", "x")
	runCmdErr(t, cmdLemma8, "-c", "x")
}

func TestCmdLemma9(t *testing.T) {
	out := runCmd(t, cmdLemma9, "-n", "2^8", "-trials", "3", "-c", "6")
	if !strings.Contains(out, "Lemma 9") {
		t.Error("lemma9 output malformed")
	}
	runCmdErr(t, cmdLemma9, "-c", "nope")
}

func TestCmdNegDep(t *testing.T) {
	out := runCmd(t, cmdNegDep, "-n", "2^9", "-trials", "30", "-c", "1,2")
	if !strings.Contains(out, "Var(N_c)") {
		t.Error("negdep output malformed")
	}
	runCmdErr(t, cmdNegDep, "-c", "nope")
}

func TestCmdMN(t *testing.T) {
	out := runCmd(t, cmdMN, "-n", "2^8", "-trials", "5", "-ratios", "1,2")
	if !strings.Contains(out, "m/n=1") || !strings.Contains(out, "m/n=2") {
		t.Error("mn output malformed")
	}
	runCmdErr(t, cmdMN, "-ratios", "x")
}

func TestCmdChurn(t *testing.T) {
	out := runCmd(t, cmdChurn, "-n", "2^8", "-trials", "3", "-steps", "2", "-d", "2")
	if !strings.Contains(out, "Infinite process") || !strings.Contains(out, "d=2") {
		t.Error("churn output malformed")
	}
	runCmdErr(t, cmdChurn, "-d", "x")
}

func TestCmdDim3(t *testing.T) {
	out := runCmd(t, cmdDim3, "-n", "2^8", "-d", "1", "-trials", "3")
	if !strings.Contains(out, "3-D torus") {
		t.Errorf("dim3 output malformed: %q", out[:60])
	}
	runCmdErr(t, cmdDim3, "-n", "x")
	runCmdErr(t, cmdDim3, "-d", "x")
}

func TestCmdUniform(t *testing.T) {
	out := runCmd(t, cmdUniform, "-n", "2^8", "-d", "1,2", "-trials", "5")
	if !strings.Contains(out, "Uniform-bin baseline") {
		t.Error("uniform output malformed")
	}
	out = runCmd(t, cmdUniform, "-n", "2^8", "-d", "2", "-trials", "5", "-goleft")
	if !strings.Contains(out, "left") {
		t.Error("goleft not reflected")
	}
	runCmdErr(t, cmdUniform, "-n", "x")
	runCmdErr(t, cmdUniform, "-d", "x")
}

func TestCmdFluid(t *testing.T) {
	out := runCmd(t, cmdFluid, "-n", "2^12")
	if !strings.Contains(out, "fluid s_i") || !strings.Contains(out, "mean load") {
		t.Error("fluid output malformed")
	}
}

func TestCmdTheory(t *testing.T) {
	out := runCmd(t, cmdTheory, "-n", "2^12,2^16", "-d", "2")
	if !strings.Contains(out, "beta recursion") {
		t.Error("theory output malformed")
	}
	runCmdErr(t, cmdTheory, "-n", "x")
	runCmdErr(t, cmdTheory, "-d", "x")
}

func TestCmdBounded(t *testing.T) {
	out := runCmd(t, cmdBounded, "-n", "2^7", "-d", "2", "-c", "1.25,2", "-trials", "5")
	for _, want := range []string{"c=1.25", "c=2", "PASS", "unbounded Thm 1", "within the bounded-load ceiling"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "FAIL") {
		t.Errorf("ceiling violated:\n%s", out)
	}
	runCmdErr(t, cmdBounded, "-c", "0.5")
	runCmdErr(t, cmdBounded, "-n", "x")
	runCmdErr(t, cmdBounded, "-d", "x")
	runCmdErr(t, cmdBounded, "-c", "x")
}

func TestCmdQueue(t *testing.T) {
	out := runCmd(t, cmdQueue, "-n", "2^7", "-horizon", "10", "-warmup", "2", "-d", "1")
	if !strings.Contains(out, "Supermarket") || !strings.Contains(out, "mean jobs/server") {
		t.Error("queue output malformed")
	}
	for _, space := range []string{"uniform", "torus"} {
		out = runCmd(t, cmdQueue, "-n", "2^7", "-horizon", "5", "-warmup", "1", "-d", "1", "-space", space)
		if !strings.Contains(out, space) {
			t.Errorf("space %q not echoed", space)
		}
	}
	runCmdErr(t, cmdQueue, "-space", "moon")
	runCmdErr(t, cmdQueue, "-d", "x")
	runCmdErr(t, cmdQueue, "-lambda", "2")
}

func TestCmdHetero(t *testing.T) {
	out := runCmd(t, cmdHetero, "-n", "2^8", "-trials", "5", "-m", "2")
	if !strings.Contains(out, "capacity-aware") || !strings.Contains(out, "capacity-blind") {
		t.Error("hetero output malformed")
	}
}

func TestCmdSized(t *testing.T) {
	out := runCmd(t, cmdSized, "-n", "2^8", "-items", "2^8", "-trials", "5")
	if !strings.Contains(out, "Weighted balls") || !strings.Contains(out, "d=2") {
		t.Error("sized output malformed")
	}
	runCmdErr(t, cmdSized, "-alpha", "-1")
	runCmdErr(t, cmdSized, "-d", "x")
}

func TestCmdBatch(t *testing.T) {
	out := runCmd(t, cmdBatch, "-n", "2^8", "-trials", "5", "-sizes", "1,32")
	if !strings.Contains(out, "batch=1") || !strings.Contains(out, "batch=32") {
		t.Error("batch output malformed")
	}
	runCmdErr(t, cmdBatch, "-sizes", "x")
}

func TestCmdMixed(t *testing.T) {
	out := runCmd(t, cmdMixed, "-n", "2^8", "-trials", "5", "-betas", "0,1")
	if !strings.Contains(out, "beta=0.00") || !strings.Contains(out, "beta=1.00") {
		t.Error("mixed output malformed")
	}
	runCmdErr(t, cmdMixed, "-betas", "x")
}

func TestCmdStabilize(t *testing.T) {
	out := runCmd(t, cmdStabilize, "-n", "2^5", "-trials", "3")
	if !strings.Contains(out, "join rounds") || !strings.Contains(out, "2^5") {
		t.Error("stabilize output malformed")
	}
	runCmdErr(t, cmdStabilize, "-n", "zzz")
}

func TestCmdAll(t *testing.T) {
	out := runCmd(t, cmdAll, "-trials", "3")
	for _, want := range []string{"table1", "lemma8", "queue", "all experiments completed"} {
		if !strings.Contains(out, want) {
			t.Errorf("all output missing %q", want)
		}
	}
}

func TestCmdTrace(t *testing.T) {
	out := runCmd(t, cmdTrace, "-n", "2^8", "-points", "4")
	if !strings.Contains(out, "nu_1") || !strings.Contains(out, "maxload") {
		t.Error("trace output malformed")
	}
}

func TestCmdLoadtest(t *testing.T) {
	out := runCmd(t, cmdLoadtest, "-servers", "8", "-workers", "2",
		"-ops", "4000", "-keys", "2^8", "-dist", "zipf")
	for _, want := range []string{"Load test", "ops/sec", "latency", "invariants: OK"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	runCmdErr(t, cmdLoadtest, "-ops", "100", "-dist", "bogus")
}

func TestCmdLoadtestTorus(t *testing.T) {
	out := runCmd(t, cmdLoadtest, "-space", "torus", "-dim", "2", "-servers", "8",
		"-workers", "2", "-ops", "10000", "-keys", "2^8", "-churn", "1ms",
		"-report", "5ms")
	for _, want := range []string{"torus space", "dim=2", "invariants: OK"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	runCmdErr(t, cmdLoadtest, "-space", "klein-bottle", "-ops", "100")
}

// TestCmdLoadtestBatch drives the bulk serving path from the CLI: a
// -batch run on the dim-3 torus with failures must still verify
// invariants and echo the batch size in its header. The run is
// time-bound so the crash always fires before it ends.
func TestCmdLoadtestBatch(t *testing.T) {
	out := runCmd(t, cmdLoadtest, "-space", "torus", "-dim", "3", "-servers", "16",
		"-workers", "2", "-duration", "40ms", "-keys", "2^8", "-batch", "32",
		"-failures", "crash@5ms:0.1")
	for _, want := range []string{"batch=32 bulk ops/call", "failure: crash@5ms killed", "invariants: OK"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	runCmdErr(t, cmdLoadtest, "-ops", "100", "-batch", "-3")
}

func TestCmdLoadtestChurn(t *testing.T) {
	out := runCmd(t, cmdLoadtest, "-servers", "8", "-workers", "3",
		"-ops", "20000", "-keys", "2^8", "-churn", "1ms", "-dist", "pareto")
	if !strings.Contains(out, "invariants: OK") {
		t.Errorf("churny loadtest did not verify invariants:\n%s", out)
	}
}

// TestCmdProfileFlags: -cpuprofile/-memprofile must produce non-empty
// pprof files around a real run (table sweep and loadtest).
func TestCmdProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := dir + "/cpu.pprof"
	mem := dir + "/mem.pprof"
	runCmd(t, cmdTable2, "-n", "2^8", "-d", "2", "-trials", "5",
		"-cpuprofile", cpu, "-memprofile", mem)
	for _, path := range []string{cpu, mem} {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile %s not written: %v", path, err)
		}
		if st.Size() == 0 {
			t.Fatalf("profile %s is empty", path)
		}
	}
	lt := dir + "/loadtest.pprof"
	runCmd(t, cmdLoadtest, "-servers", "8", "-workers", "2", "-ops", "20000",
		"-keys", "2^8", "-cpuprofile", lt)
	if st, err := os.Stat(lt); err != nil || st.Size() == 0 {
		t.Fatalf("loadtest profile missing or empty (err %v)", err)
	}
	// A bad path must fail, not silently skip profiling.
	runCmdErr(t, cmdTable1, "-n", "2^8", "-d", "1", "-trials", "2",
		"-cpuprofile", dir+"/no/such/dir/x.pprof")
}
