// The serving front end to end: multi-tenant record sessions with
// SLO-driven admission control on native flash.
//
// Part 1 drives the session API by hand: one System, a tenant catalog
// (a latency-sensitive "paying" tenant and a rate-contracted "batch"
// tenant), a record store, and a few sessions doing gets, puts,
// transactions and scans — every I/O stamped with its tenant's
// scheduler class, stream tag and deadline.
//
// Part 2 runs the admission ablation at reduced scale: the same
// two-tenant load under no-control, rate-limit and rate-limit+shed
// regimes. Watch the batch tenant get paced, deprioritized and shed
// while the paying tenant's p99 stays near its uncontended baseline.
// Scale it up with `go run ./cmd/noftlbench -exp serve`.
package main

import (
	"errors"
	"fmt"
	"log"

	"noftl"
)

func main() {
	// --- Part 1: the session API ---
	sys, err := noftl.NewSystem(noftl.SystemConfig{
		Stack:      noftl.StackNoFTLRegions,
		Dies:       4,
		CapacityMB: 64,
		Frames:     128,
	}, noftl.WithPriorityScheduler())
	if err != nil {
		log.Fatal(err)
	}

	// The tenant catalog: who may connect, at what class, with what
	// deadline, SLO budget and contracted rate. Rate 0 = uncapped.
	_, err = sys.StartServe(noftl.ServeConfig{
		Control: noftl.ControlFull,
		Tenants: []noftl.TenantSpec{
			{Name: "paying", Tag: 0x7E0001, Class: noftl.ReqRead,
				Deadline: 10 * noftl.Millisecond, MissBudget: 0.25},
			{Name: "batch", Tag: 0x7E0002, Class: noftl.ReqProgram,
				Deadline: 5 * noftl.Millisecond, MissBudget: 0.05,
				Rate: 2000, Burst: 16},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := sys.Serve.CreateStore(sys.Ctx, "orders"); err != nil {
		log.Fatal(err)
	}

	s, err := sys.OpenSession("paying", "orders")
	if err != nil {
		log.Fatal(err)
	}
	ctx := sys.Ctx
	for i := int64(0); i < 100; i++ {
		if err := s.Put(ctx, i, fmt.Appendf(nil, "order-%03d", i)); err != nil {
			log.Fatal(err)
		}
	}
	v, err := s.Get(ctx, 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("get(42) -> %q  (stamped tag 0x7E0001, class read, 10ms deadline)\n", v)

	// A read-modify-write transaction: admitted once, atomic, aborted
	// automatically on error.
	err = s.Tx(ctx, func(tx *noftl.SessionTx) error {
		old, err := tx.GetForUpdate(42)
		if err != nil {
			return err
		}
		return tx.Put(42, append(old, []byte(" [shipped]")...))
	})
	if err != nil {
		log.Fatal(err)
	}
	v, _ = s.Get(ctx, 42)
	fmt.Printf("after tx -> %q\n", v)

	n := 0
	if err := s.Scan(ctx, 10, 20, func(key int64, val []byte) bool {
		n++
		return true
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scan [10,20] -> %d records\n", n)

	// A shed request surfaces as ErrShed — the client backs off and
	// retries; errors.Is makes it easy to classify.
	fmt.Printf("ErrShed is retryable: %v\n", errors.Is(fmt.Errorf("wrap: %w", noftl.ErrShed), noftl.ErrShed))
	st := sys.Serve.Stats()
	fmt.Printf("front: %d admitted, %d deprioritized, %d shed\n\n", st.Admitted, st.Deprioritized, st.Shed)
	s.Close()
	if err := sys.Close(); err != nil {
		log.Fatal(err)
	}

	// --- Part 2: the admission ablation, reduced scale ---
	res, err := noftl.ServeAblation(noftl.ServeAblationConfig{
		Params: noftl.ExperimentParams{
			Workers: 200, // sessions, split 1:3 paying:batch
			Warm:    500 * noftl.Millisecond, Measure: 2 * noftl.Second, Seed: 42,
		},
		Rows:   4096,
		Settle: 700 * noftl.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Admission ablation: no-control vs rate-limit vs rate-limit+shed")
	fmt.Print(res.Table())
	// Rows are named after their controls; the reference is "uncontended".
	protection := func(regime string) float64 {
		return res.Ratio(regime, "uncontended", noftl.PayingCommitP99)
	}
	fmt.Printf("\npaying p99 vs uncontended: no-control %.2fx, rate-limit %.2fx, rate-limit+shed %.2fx\n",
		protection(noftl.ControlNone.String()),
		protection(noftl.ControlRateLimit.String()),
		protection(noftl.ControlFull.String()))
	fmt.Println("\nThe burn-rate guard watches each tenant's deadline-miss rate")
	fmt.Println("against its SLO budget: breachers are deprioritized to the")
	fmt.Println("degraded class, then shed — and the compliant tenant's tail")
	fmt.Println("stays near its uncontended baseline.")
}
