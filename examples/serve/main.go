// The serving front's session API: multi-tenant record sessions with
// SLO-driven admission control on native flash.
//
// One System, a tenant catalog (a latency-sensitive "paying" tenant and
// a rate-contracted "batch" tenant), a record store, and a session doing
// gets, puts, a transaction and a scan — every I/O stamped with its
// tenant's scheduler class, stream tag and deadline. The admission
// ablation (the same two-tenant load under no-control, rate-limit and
// rate-limit+shed regimes) is `go run ./cmd/noftlbench -exp serve`.
package main

import (
	"errors"
	"fmt"
	"log"

	"noftl"
)

func main() {
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
	fmt.Printf("front: %d admitted, %d deprioritized, %d shed\n", st.Admitted, st.Deprioritized, st.Shed)
	s.Close()
	if err := sys.Close(); err != nil {
		log.Fatal(err)
	}
}
