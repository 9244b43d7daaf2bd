package bench

import (
	"testing"

	"noftl/internal/flash"
	"noftl/internal/ioreq"
	"noftl/internal/nand"
	"noftl/internal/sched"
	"noftl/internal/sim"
	"noftl/internal/storage"
	"noftl/internal/system"
	"noftl/internal/telemetry/blame"
)

// TestClassInheritanceEndToEnd checks the tentpole invariant on both
// the single-volume and region-managed stacks: a request whose context
// declares ClassGC at the engine layer must reach the die queue as a GC
// command, be recorded as GC (with its stream tag) in the command log,
// and show up in the scheduler's per-class queue-wait accounting — even
// though its op types (program, read) would dispatch it elsewhere.
func TestClassInheritanceEndToEnd(t *testing.T) {
	for _, stack := range []system.Stack{system.StackNoFTL, system.StackNoFTLRegions} {
		t.Run(string(stack), func(t *testing.T) {
			devCfg := flash.EmulatorConfig(2, 16, nand.SLC)
			sys, err := system.New(system.Config{Stack: stack, Device: &devCfg, Frames: 64},
				system.WithPriorityScheduler(), system.WithBlame(blame.Config{}))
			if err != nil {
				t.Fatal(err)
			}
			const tag = 7
			var runErr error
			sys.K.Go("client", func(p *sim.Proc) {
				ctx := storage.NewIOCtx(sim.ProcWaiter{P: p}).
					WithClass(ioreq.ClassGC).WithTag(tag)
				buf := make([]byte, sys.Vol.PageSize())
				if err := sys.Vol.WritePage(ctx, 3, buf, storage.HintHotData); err != nil {
					runErr = err
					return
				}
				if err := sys.Vol.ReadPage(ctx, 3, buf); err != nil {
					runErr = err
				}
			})
			sys.K.RunFor(sim.Second)
			sys.K.Shutdown()
			if runErr != nil {
				t.Fatal(runErr)
			}

			st := sys.Sched.Stats()
			if st.Scheduled[sched.ClassGC] < 2 {
				t.Fatalf("declared-GC write+read must dispatch as GC: scheduled=%v", st.Scheduled)
			}
			var gotProgram, gotRead bool
			for _, ev := range sys.CmdLog {
				if ev.Tag != tag {
					t.Fatalf("command lost its stream tag: %+v", ev)
				}
				if ev.Class != sched.ClassGC {
					t.Fatalf("command lost its declared class: %+v", ev)
				}
				switch ev.Op {
				case "program":
					gotProgram = true
				case "read":
					gotRead = true
				}
			}
			if !gotProgram || !gotRead {
				t.Fatalf("command log incomplete: program=%v read=%v (%d events)",
					gotProgram, gotRead, len(sys.CmdLog))
			}
			// Queue-wait attribution: only the GC class row may be
			// populated, and it accounts for every logged command.
			for c := sched.Class(0); c < sched.NumClasses; c++ {
				if c != sched.ClassGC && st.Scheduled[c] != 0 {
					t.Fatalf("class %v dispatched %d commands; all traffic declared GC",
						c, st.Scheduled[c])
				}
			}
			if int64(len(sys.CmdLog)) != st.Scheduled[sched.ClassGC] {
				t.Fatalf("per-class accounting mismatch: %d logged commands, sched=%v",
					len(sys.CmdLog), st.Scheduled)
			}
		})
	}
}

// TestUndeclaredCheckpointAnchorsAtWALClass: a checkpoint whose context
// declares nothing writes its log anchor at the WAL class, as its log
// flush does — not at the program class its op type alone would give.
func TestUndeclaredCheckpointAnchorsAtWALClass(t *testing.T) {
	devCfg := flash.EmulatorConfig(2, 16, nand.SLC)
	sys, err := system.New(system.Config{Stack: system.StackNoFTLRegions, Device: &devCfg, Frames: 64},
		system.WithPriorityScheduler(), system.WithBlame(blame.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	_, wal, err := sys.Regions.Mount()
	if err != nil {
		t.Fatal(err)
	}
	logDies := map[int]bool{}
	for _, die := range wal.Dies {
		logDies[die] = true
	}
	var runErr error
	sys.K.Go("checkpointer", func(p *sim.Proc) {
		runErr = sys.Engine.Checkpoint(storage.NewIOCtx(sim.ProcWaiter{P: p}))
	})
	sys.K.RunFor(sim.Second)
	sys.K.Shutdown()
	if runErr != nil {
		t.Fatal(runErr)
	}
	// The anchor is the checkpoint's last program on the log region.
	var anchor *sched.Event
	for i, ev := range sys.CmdLog {
		if logDies[ev.Die] && ev.Op == "program" {
			anchor = &sys.CmdLog[i]
		}
	}
	if anchor == nil {
		t.Fatalf("no log-region program among %d commands", len(sys.CmdLog))
	}
	if anchor.Class != sched.ClassWAL {
		t.Fatalf("undeclared checkpoint anchor dispatched at %v, want %v", anchor.Class, sched.ClassWAL)
	}
}
