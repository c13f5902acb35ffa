package storage

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"vats/internal/buffer"
)

func newPool(capacity, pageSize int) *buffer.Pool {
	return buffer.NewPool(buffer.Config{Capacity: capacity, PageSize: pageSize})
}

func row(s string) []byte {
	var b RowBuilder
	return b.String(s).Bytes()
}

func rowString(t *testing.T, img []byte) string {
	t.Helper()
	r := NewRowReader(img)
	s := r.String()
	if !r.Ok() {
		t.Fatalf("corrupt row image % x", img)
	}
	return s
}

func TestPageBasics(t *testing.T) {
	data := make([]byte, 256)
	pageInit(data)
	if pageNumSlots(data) != 0 {
		t.Fatal("fresh page has slots")
	}
	free0 := pageFreeSpace(data)
	s1, ok := pageInsertRow(data, []byte("hello"))
	if !ok {
		t.Fatal("insert failed")
	}
	s2, ok := pageInsertRow(data, []byte("world!"))
	if !ok || s2 == s1 {
		t.Fatal("second insert")
	}
	if pageFreeSpace(data) >= free0 {
		t.Fatal("free space did not shrink")
	}
	got, ok := pageReadRowAppend(data, s1, nil)
	if !ok || string(got) != "hello" {
		t.Fatalf("read slot1 = %q, %v", got, ok)
	}
	if !pageUpdateRowInPlace(data, s1, []byte("HELLO")) {
		t.Fatal("same-size update failed")
	}
	got, _ = pageReadRowAppend(data, s1, nil)
	if string(got) != "HELLO" {
		t.Fatalf("after update: %q", got)
	}
	if pageUpdateRowInPlace(data, s1, []byte("way too long to fit in place")) {
		t.Fatal("oversized in-place update succeeded")
	}
	if !pageDeleteRow(data, s1) {
		t.Fatal("delete failed")
	}
	if _, ok := pageReadRowAppend(data, s1, nil); ok {
		t.Fatal("read of dead slot succeeded")
	}
	if pageDeleteRow(data, s1) {
		t.Fatal("double delete succeeded")
	}
	if _, ok := pageReadRowAppend(data, 99, nil); ok {
		t.Fatal("out-of-range slot read")
	}
}

func TestPageFillsUp(t *testing.T) {
	data := make([]byte, 128)
	pageInit(data)
	inserted := 0
	for {
		_, ok := pageInsertRow(data, []byte("0123456789"))
		if !ok {
			break
		}
		inserted++
	}
	if inserted == 0 {
		t.Fatal("nothing fit")
	}
	// Every inserted row must still read back.
	for s := 0; s < inserted; s++ {
		if got, ok := pageReadRowAppend(data, s, nil); !ok || string(got) != "0123456789" {
			t.Fatalf("slot %d corrupt after fill: %q %v", s, got, ok)
		}
	}
}

func TestCodecRoundTrip(t *testing.T) {
	var b RowBuilder
	img := b.Uint64(42).Int64(-7).Uint32(9).Float64(3.5).String("abc").Bytes()
	r := NewRowReader(img)
	if r.Uint64() != 42 || r.Int64() != -7 || r.Uint32() != 9 || r.Float64() != 3.5 || r.String() != "abc" {
		t.Fatal("round trip mismatch")
	}
	if !r.Ok() {
		t.Fatal("reader flagged error")
	}
	// Reading past the end turns Ok false and yields zeros.
	if r.Uint64() != 0 || r.Ok() {
		t.Fatal("overread not detected")
	}
}

func TestCodecReset(t *testing.T) {
	var b RowBuilder
	b.Uint64(1)
	b.Reset().Uint64(2)
	r := NewRowReader(b.Bytes())
	if r.Uint64() != 2 {
		t.Fatal("reset did not clear")
	}
	if len(b.Bytes()) != 8 {
		t.Fatalf("len = %d", len(b.Bytes()))
	}
}

func TestCodecTruncatedString(t *testing.T) {
	var b RowBuilder
	img := b.String("hello").Bytes()
	r := NewRowReader(img[:3]) // cut mid-string
	if r.String() != "" || r.Ok() {
		t.Fatal("truncated string not detected")
	}
}

func TestTableInsertGet(t *testing.T) {
	p := newPool(16, 256)
	tab := NewTable("t", 1, p)
	h := p.NewHandle()
	if err := tab.Insert(h, 1, row("one")); err != nil {
		t.Fatal(err)
	}
	if err := tab.Insert(h, 1, row("dup")); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("dup err = %v", err)
	}
	img, err := tab.Get(h, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rowString(t, img) != "one" {
		t.Fatalf("row = %q", rowString(t, img))
	}
	if _, err := tab.Get(h, 2); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("missing err = %v", err)
	}
	if tab.Len() != 1 {
		t.Fatalf("len = %d", tab.Len())
	}
}

func TestTableSpillsAcrossPages(t *testing.T) {
	p := newPool(64, 128) // tiny pages force spills
	tab := NewTable("t", 1, p)
	h := p.NewHandle()
	const n = 200
	for i := uint64(1); i <= n; i++ {
		if err := tab.Insert(h, i, row(fmt.Sprintf("row-%03d", i))); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if tab.Pages() < 2 {
		t.Fatalf("pages = %d; rows did not spill", tab.Pages())
	}
	for i := uint64(1); i <= n; i++ {
		img, err := tab.Get(h, i)
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		if want := fmt.Sprintf("row-%03d", i); rowString(t, img) != want {
			t.Fatalf("row %d = %q", i, rowString(t, img))
		}
	}
}

func TestTableUpdateInPlaceAndRelocate(t *testing.T) {
	p := newPool(16, 256)
	tab := NewTable("t", 1, p)
	h := p.NewHandle()
	if err := tab.Insert(h, 1, row("aaaaaaaaaa")); err != nil {
		t.Fatal(err)
	}
	// Same size: in place.
	if err := tab.Update(h, 1, row("bbbbbbbbbb")); err != nil {
		t.Fatal(err)
	}
	img, _ := tab.Get(h, 1)
	if rowString(t, img) != "bbbbbbbbbb" {
		t.Fatal("in-place update lost")
	}
	// Larger: relocation.
	big := row("cccccccccccccccccccccccccccccc")
	if err := tab.Update(h, 1, big); err != nil {
		t.Fatal(err)
	}
	img, _ = tab.Get(h, 1)
	if rowString(t, img) != "cccccccccccccccccccccccccccccc" {
		t.Fatal("relocated update lost")
	}
	if err := tab.Update(h, 9, row("x")); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("update missing = %v", err)
	}
}

func TestTableDelete(t *testing.T) {
	p := newPool(16, 256)
	tab := NewTable("t", 1, p)
	h := p.NewHandle()
	tab.Insert(h, 1, row("x"))
	if err := tab.Delete(h, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Get(h, 1); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("get after delete = %v", err)
	}
	if err := tab.Delete(h, 1); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("double delete = %v", err)
	}
	// Key can be reinserted.
	if err := tab.Insert(h, 1, row("y")); err != nil {
		t.Fatal(err)
	}
}

func TestTableScan(t *testing.T) {
	p := newPool(32, 256)
	tab := NewTable("t", 1, p)
	h := p.NewHandle()
	for i := uint64(1); i <= 20; i++ {
		tab.Insert(h, i*10, row(fmt.Sprintf("v%d", i*10)))
	}
	var keys []uint64
	err := tab.Scan(h, 50, 120, func(k uint64, img []byte) bool {
		keys = append(keys, k)
		if rowString(t, img) != fmt.Sprintf("v%d", k) {
			t.Errorf("scan row %d mismatch", k)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{50, 60, 70, 80, 90, 100, 110, 120}
	if len(keys) != len(want) {
		t.Fatalf("scan keys = %v", keys)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("scan keys = %v", keys)
		}
	}
	// Early stop.
	count := 0
	tab.Scan(h, 0, ^uint64(0), func(uint64, []byte) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("early stop count = %d", count)
	}
}

func TestRowTooLarge(t *testing.T) {
	p := newPool(8, 64)
	tab := NewTable("t", 1, p)
	h := p.NewHandle()
	big := make([]byte, 300)
	if err := tab.Insert(h, 1, big); !errors.Is(err, ErrRowTooLarge) {
		t.Fatalf("err = %v", err)
	}
}

func TestTableSurvivesEvictionChurn(t *testing.T) {
	// Pool far smaller than the table: every access churns pages.
	p := newPool(4, 256)
	tab := NewTable("t", 1, p)
	h := p.NewHandle()
	const n = 150
	for i := uint64(1); i <= n; i++ {
		if err := tab.Insert(h, i, row(fmt.Sprintf("value-%04d", i))); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	for i := uint64(1); i <= n; i++ {
		img, err := tab.Get(h, i)
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		if want := fmt.Sprintf("value-%04d", i); rowString(t, img) != want {
			t.Fatalf("row %d = %q, want %q", i, rowString(t, img), want)
		}
	}
}

func TestConcurrentDistinctKeys(t *testing.T) {
	// Different goroutines work on disjoint key ranges (the lock manager
	// would enforce this in the engine); storage must stay consistent.
	p := newPool(16, 512)
	tab := NewTable("t", 1, p)
	const workers = 8
	const per = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		base := uint64(w * 1000)
		go func() {
			defer wg.Done()
			h := p.NewHandle()
			for i := uint64(1); i <= per; i++ {
				k := base + i
				if err := tab.Insert(h, k, row(fmt.Sprintf("w%d", k))); err != nil {
					t.Errorf("insert %d: %v", k, err)
					return
				}
				if err := tab.Update(h, k, row(fmt.Sprintf("u%d", k))); err != nil {
					t.Errorf("update %d: %v", k, err)
					return
				}
				img, err := tab.Get(h, k)
				if err != nil || rowString(t, img) != fmt.Sprintf("u%d", k) {
					t.Errorf("get %d: %v", k, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if tab.Len() != workers*per {
		t.Fatalf("len = %d, want %d", tab.Len(), workers*per)
	}
}

// Property: insert/delete sequences keep Len consistent with an oracle
// and all rows readable.
func TestTableOracleProperty(t *testing.T) {
	f := func(seed int64) bool {
		p := newPool(8, 256)
		tab := NewTable("t", 1, p)
		h := p.NewHandle()
		oracle := map[uint64]string{}
		x := uint64(seed)*2654435761 + 12345
		next := func(n uint64) uint64 {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			return x % n
		}
		for op := 0; op < 300; op++ {
			k := next(40) + 1
			switch next(4) {
			case 0, 1:
				v := fmt.Sprintf("v%d-%d", k, op)
				err := tab.Insert(h, k, row(v))
				if _, exists := oracle[k]; exists {
					if !errors.Is(err, ErrDuplicateKey) {
						return false
					}
				} else if err != nil {
					return false
				} else {
					oracle[k] = v
				}
			case 2:
				v := fmt.Sprintf("u%d-%d", k, op)
				err := tab.Update(h, k, row(v))
				if _, exists := oracle[k]; exists {
					if err != nil {
						return false
					}
					oracle[k] = v
				} else if !errors.Is(err, ErrKeyNotFound) {
					return false
				}
			case 3:
				err := tab.Delete(h, k)
				if _, exists := oracle[k]; exists {
					if err != nil {
						return false
					}
					delete(oracle, k)
				} else if !errors.Is(err, ErrKeyNotFound) {
					return false
				}
			}
		}
		if tab.Len() != len(oracle) {
			return false
		}
		for k, want := range oracle {
			img, err := tab.Get(h, k)
			if err != nil {
				return false
			}
			if rowString(t, img) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
