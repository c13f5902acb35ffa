package storage

import (
	"testing"
)

// FuzzPageCodec feeds arbitrary bytes to the slotted-page reader — the
// structure recovery and the buffer pool trust after a crash. No input
// may panic, and any page pageCheck accepts must be fully readable:
// every slot either dead or yielding an in-bounds row image.
func FuzzPageCodec(f *testing.F) {
	valid := make([]byte, 256)
	pageInit(valid)
	pageInsertRow(valid, []byte("hello"))
	pageInsertRow(valid, []byte("world, this row is a bit longer"))
	withDead := append([]byte(nil), valid...)
	pageDeleteRow(withDead, 0)
	f.Add([]byte{})
	f.Add(valid)
	f.Add(withDead)
	f.Add(valid[:7]) // shorter than the header
	corrupt := append([]byte(nil), valid...)
	corrupt[2] = 0xff // absurd slot count
	f.Add(corrupt)
	f.Fuzz(func(t *testing.T, data []byte) {
		err := pageCheck(data)
		// Reads must be safe whether or not the page is valid...
		for slot := 0; slot < 300; slot++ {
			row, ok := pageReadRowAppend(data, slot, nil)
			if !ok {
				continue
			}
			if err != nil && slot < pageNumSlots(data) {
				continue // invalid page: reads may still succeed per-slot
			}
			if len(row) == 0 {
				t.Fatalf("slot %d: ok with empty row", slot)
			}
		}
		if err != nil {
			return
		}
		// ...and on a page that passes pageCheck, every live slot must
		// read back successfully.
		for slot := 0; slot < pageNumSlots(data); slot++ {
			if _, _, ok := slotBounds(data, slot); ok {
				if _, rok := pageReadRowAppend(data, slot, nil); !rok {
					t.Fatalf("valid page: live slot %d unreadable", slot)
				}
			}
		}
	})
}
