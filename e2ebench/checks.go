package main

import (
	"errors"
	"fmt"

	"vats/internal/engine"
	"vats/internal/storage"
)

// invariantChecker is the engine's self-audit, behind an interface so a
// test can hand the checker an engine that fails it.
type invariantChecker interface{ CheckInvariants() error }

// checkInvariants runs the engine's own structural audit (WAL, buffer
// pool, every table's heap and indexes) at a quiescent point.
func checkInvariants(db invariantChecker) error {
	if err := db.CheckInvariants(); err != nil {
		return fmt.Errorf("invariants: %w", err)
	}
	return nil
}

// TPC-C key packing, as workload.TPCC lays out its composite keys.
func tpccDistrictKey(wh, d int) uint64 { return uint64(wh)*100 + uint64(d) }
func tpccOrderKey(wh, d int, o uint64) uint64 {
	return tpccDistrictKey(wh, d)*1_000_000 + o
}

// checkTPCCOrders checks TPC-C's consistency condition 2 as the workload
// keeps it: every district's next_o_id − 1 equals the number of orders
// in that district.
func checkTPCCOrders(db *engine.DB, warehouses, districts int) error {
	district, ok1 := db.Table("district")
	orders, ok2 := db.Table("orders")
	if !ok1 || !ok2 {
		return errors.New("tpcc: district or orders table missing")
	}
	snap := db.NewSession().BeginSnapshot()
	defer snap.Close()
	var errs []error
	for wh := 1; wh <= warehouses; wh++ {
		for d := 1; d <= districts; d++ {
			row, err := snap.Get(district, tpccDistrictKey(wh, d))
			if err != nil {
				return fmt.Errorf("tpcc: district %d/%d: %w", wh, d, err)
			}
			next := storage.NewRowReader(row).Uint64()
			var n uint64
			if err := snap.Scan(orders, tpccOrderKey(wh, d, 1), tpccOrderKey(wh, d, 999_999),
				func(uint64, []byte) bool { n++; return true }); err != nil {
				return fmt.Errorf("tpcc: scan orders %d/%d: %w", wh, d, err)
			}
			if next-1 != n {
				errs = append(errs, fmt.Errorf("tpcc: district %d/%d: next_o_id-1 = %d, orders = %d", wh, d, next-1, n))
			}
		}
	}
	return errors.Join(errs...)
}

// checkKVState checks that every key holds a row for that key carrying
// the tag of an acknowledged write: one connection's last acknowledged
// write to it, or the loaded tag 0 if no write to it was acknowledged.
func checkKVState(db *engine.DB, keys uint64, a *acked) error {
	t, ok := db.Table(kvTable)
	if !ok {
		return errors.New("kv: table missing")
	}
	snap := db.NewSession().BeginSnapshot()
	defer snap.Close()
	var bad int
	var first error
	for k := uint64(1); k <= keys; k++ {
		row, err := snap.Get(t, k)
		if err != nil {
			return fmt.Errorf("kv: key %d: %w", k, err)
		}
		rk, tag, ok := rowKey(row)
		if ok && rk == k && a.holds(k, tag) {
			continue
		}
		if bad++; first == nil {
			first = fmt.Errorf("kv: key %d holds key %d tag %#x, not an acknowledged write", k, rk, tag)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%w (%d keys wrong)", first, bad)
	}
	return nil
}

// holds reports whether tag may be key's final tag.
func (a *acked) holds(key, tag uint64) bool {
	any := false
	for _, last := range a.last {
		if last[key] == tag && tag != 0 {
			return true
		}
		any = any || last[key] != 0
	}
	return !any && tag == 0
}

// checkProtocol fails a run that saw a protocol error or a wrong reply.
func checkProtocol(run *wireRun) error {
	if run.proto == 0 && len(run.wrong) == 0 {
		return nil
	}
	msg := "none recorded"
	if len(run.wrong) > 0 {
		msg = run.wrong[0]
	}
	return fmt.Errorf("wire: %d protocol errors, %d wrong replies (first: %s)", run.proto, len(run.wrong), msg)
}
