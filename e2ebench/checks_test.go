package main

import (
	"bytes"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"vats/internal/engine"
	"vats/internal/storage"
	"vats/internal/workload"
)

func testInstance(t *testing.T) *instance {
	t.Helper()
	in, err := openInstance(filepath.Join(t.TempDir(), "db"), false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(in.close)
	return in
}

type failingEngine struct{}

func (failingEngine) CheckInvariants() error { return errors.New("heap and index disagree") }

func TestCheckInvariants(t *testing.T) {
	in := testInstance(t)
	if err := checkInvariants(in.db); err != nil {
		t.Fatalf("fresh engine: %v", err)
	}
	if err := checkInvariants(failingEngine{}); err == nil {
		t.Fatal("an engine failing its audit passed the check")
	}
}

func TestCheckTPCCOrders(t *testing.T) {
	in := testInstance(t)
	w := workload.NewTPCC(tpccSpec)
	if err := w.Load(in.db); err != nil {
		t.Fatal(err)
	}
	c, err := w.NewClient(in.db, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if _, err := c.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if err := checkTPCCOrders(in.db, tpccWarehouses, tpccDistricts); err != nil {
		t.Fatalf("after a clean run: %v", err)
	}
	// An order that no district's next_o_id accounts for.
	orders, _ := in.db.Table("orders")
	var row storage.RowBuilder
	err = in.db.NewSession().RunTxn(0, func(tx *engine.Txn) error {
		return tx.Insert(orders, tpccOrderKey(2, 3, 999_000), row.Uint64(1).Bytes())
	})
	if err != nil {
		t.Fatal(err)
	}
	err = checkTPCCOrders(in.db, tpccWarehouses, tpccDistricts)
	if err == nil || !strings.Contains(err.Error(), "district 2/3") {
		t.Fatalf("an extra order in district 2/3 gave %v", err)
	}
}

func TestCheckKVState(t *testing.T) {
	in := testInstance(t)
	const keys = 64
	if err := loadKV(in.db, keys); err != nil {
		t.Fatal(err)
	}
	kv, _ := in.db.Table(kvTable)
	update := func(key, tag uint64) {
		t.Helper()
		err := in.db.NewSession().RunTxn(0, func(tx *engine.Txn) error {
			return tx.Update(kv, key, appendKVRow(nil, key, tag))
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	a := newAcked(2, keys)
	update(5, 1<<48|1)
	a.last[0][5] = 1<<48 | 1
	update(5, 2<<48|1)
	a.last[1][5] = 2<<48 | 1
	if err := checkKVState(in.db, keys, a); err != nil {
		t.Fatalf("acknowledged writes only: %v", err)
	}

	// Wrong expectation: connection 1's write was never acknowledged.
	a.last[1][5] = 0
	if err := checkKVState(in.db, keys, a); err == nil {
		t.Fatal("a key holding an unacknowledged write passed")
	}
	a.last[1][5] = 2<<48 | 1

	// Wrong expectation: a write to key 9 was acknowledged but the key
	// still holds its loaded row.
	a.last[0][9] = 1<<48 | 2
	if err := checkKVState(in.db, keys, a); err == nil {
		t.Fatal("a key that lost an acknowledged write passed")
	}
}

func TestCheckProtocol(t *testing.T) {
	if err := checkProtocol(&wireRun{}); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	if err := checkProtocol(&wireRun{proto: 1}); err == nil {
		t.Fatal("a protocol error passed")
	}
	if err := checkProtocol(&wireRun{wrong: []string{"get 3: wrong row"}}); err == nil {
		t.Fatal("a wrong reply passed")
	}
}

// A failed correctness check makes the run exit nonzero, with the
// result line still printed and marked incorrect.
func TestFailedCheckExitsNonzero(t *testing.T) {
	o := &options{workload: "tpcc", dataRoot: t.TempDir()}
	run := func(*options) (*result, error) {
		r := &result{attempted: 1, committed: 1, lat: &intervals{b: [][]float64{{1}}}, setups: []float64{1}}
		r.check(errors.New("tpcc: district 1/1: next_o_id-1 = 4, orders = 5"))
		return r, nil
	}
	var out bytes.Buffer
	if code := runAndReport(o, run, &out); code == 0 {
		t.Error("exit code 0 after a failed check")
	}
	if !strings.Contains(out.String(), `"correct":false`) {
		t.Errorf("result line does not say incorrect: %s", out.String())
	}
}
