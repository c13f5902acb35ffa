// Package storage implements heap tables over the buffer pool: slotted
// pages for row data, a clustered B+-tree index mapping primary keys to
// row locations, and a compact row codec used by the workloads.
//
// Storage provides physical consistency (latched pages, consistent
// indexes). Transactional isolation for same-key access is the caller's
// job: the engine wraps every row operation in record locks from
// internal/lock, which is precisely the boundary the paper studies.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
)

// Slotted page layout (little endian):
//
//	[0:2]  numSlots
//	[2:4]  dataStart — offset of the lowest used data byte
//	[4:..] slot directory, 4 bytes per slot: offset uint16, length uint16
//	[...]  free space
//	[dataStart:] row data, growing downward from the page end
//
// A slot with offset 0 is dead (deleted or relocated). Dead slots are
// never reused, so a stale RID can never alias a different row.

const (
	pageHeaderSize = 4
	slotSize       = 4
	deadOffset     = 0
)

func pageInit(data []byte) {
	binary.LittleEndian.PutUint16(data[0:2], 0)
	binary.LittleEndian.PutUint16(data[2:4], uint16(len(data)))
}

func pageNumSlots(data []byte) int {
	return int(binary.LittleEndian.Uint16(data[0:2]))
}

func pageDataStart(data []byte) int {
	return int(binary.LittleEndian.Uint16(data[2:4]))
}

func pageFreeSpace(data []byte) int {
	return pageDataStart(data) - pageHeaderSize - slotSize*pageNumSlots(data)
}

// pageInsertRow appends a row, returning its slot, or ok=false when the
// page lacks space.
func pageInsertRow(data []byte, row []byte) (slot int, ok bool) {
	if len(row) == 0 || len(row) > maxRowSize(len(data)) {
		return 0, false
	}
	if pageFreeSpace(data) < len(row)+slotSize {
		return 0, false
	}
	n := pageNumSlots(data)
	start := pageDataStart(data) - len(row)
	copy(data[start:], row)
	slotOff := pageHeaderSize + slotSize*n
	binary.LittleEndian.PutUint16(data[slotOff:], uint16(start))
	binary.LittleEndian.PutUint16(data[slotOff+2:], uint16(len(row)))
	binary.LittleEndian.PutUint16(data[0:2], uint16(n+1))
	binary.LittleEndian.PutUint16(data[2:4], uint16(start))
	return n, true
}

// slotBounds resolves a slot to its row's [off, off+length) extent,
// rejecting out-of-range slot numbers, dead slots, and — defensively —
// extents that escape the page (a corrupt or foreign byte image must
// yield ok=false, never an out-of-bounds read; FuzzPageCodec relies on
// this).
func slotBounds(data []byte, slot int) (off, length int, ok bool) {
	if len(data) < pageHeaderSize || slot < 0 || slot >= pageNumSlots(data) {
		return 0, 0, false
	}
	so := pageHeaderSize + slotSize*slot
	if so+slotSize > len(data) {
		return 0, 0, false
	}
	off = int(binary.LittleEndian.Uint16(data[so:]))
	if off == deadOffset {
		return 0, 0, false
	}
	length = int(binary.LittleEndian.Uint16(data[so+2:]))
	if off < pageHeaderSize || off+length > len(data) {
		return 0, 0, false
	}
	return off, length, true
}

// pageReadRowAppend appends the row in slot to buf (with a nil buf, a
// fresh copy).
func pageReadRowAppend(data []byte, slot int, buf []byte) ([]byte, bool) {
	off, length, ok := slotBounds(data, slot)
	if !ok {
		return buf, false
	}
	return append(buf, data[off:off+length]...), true
}

// pageUpdateRowInPlace overwrites a row if the new image fits in the
// slot's existing space.
func pageUpdateRowInPlace(data []byte, slot int, row []byte) bool {
	off, length, ok := slotBounds(data, slot)
	if !ok {
		return false
	}
	if len(row) > length || len(row) == 0 {
		return false
	}
	so := pageHeaderSize + slotSize*slot
	copy(data[off:], row)
	binary.LittleEndian.PutUint16(data[so+2:], uint16(len(row)))
	return true
}

// pageDeleteRow tombstones a slot. The space is not reclaimed.
func pageDeleteRow(data []byte, slot int) bool {
	if len(data) < pageHeaderSize || slot < 0 || slot >= pageNumSlots(data) {
		return false
	}
	so := pageHeaderSize + slotSize*slot
	if so+slotSize > len(data) {
		return false
	}
	if binary.LittleEndian.Uint16(data[so:]) == deadOffset {
		return false
	}
	binary.LittleEndian.PutUint16(data[so:], deadOffset)
	return true
}

// pageCheck validates a page's structure: the slot directory must fit,
// every live slot's extent must lie inside the page below the data
// region, and live extents must not overlap. It is the page-level
// invariant the torture harness audits after recovery.
func pageCheck(data []byte) error {
	if len(data) < pageHeaderSize {
		return errors.New("storage: page smaller than header")
	}
	n := pageNumSlots(data)
	ds := pageDataStart(data)
	if pageHeaderSize+slotSize*n > ds || ds > len(data) {
		return fmt.Errorf("storage: slot directory (n=%d) collides with data start %d", n, ds)
	}
	type extent struct{ off, end int }
	var live []extent
	for slot := 0; slot < n; slot++ {
		so := pageHeaderSize + slotSize*slot
		off := int(binary.LittleEndian.Uint16(data[so:]))
		if off == deadOffset {
			continue
		}
		length := int(binary.LittleEndian.Uint16(data[so+2:]))
		if off < ds || off+length > len(data) {
			return fmt.Errorf("storage: slot %d extent [%d,%d) outside data region [%d,%d)", slot, off, off+length, ds, len(data))
		}
		if length == 0 {
			return fmt.Errorf("storage: slot %d live with zero length", slot)
		}
		live = append(live, extent{off, off + length})
	}
	sort.Slice(live, func(i, j int) bool { return live[i].off < live[j].off })
	for i := 1; i < len(live); i++ {
		if live[i].off < live[i-1].end {
			return fmt.Errorf("storage: row extents overlap at offset %d", live[i].off)
		}
	}
	return nil
}

// maxRowSize is the largest row a page of the given size can hold.
func maxRowSize(pageSize int) int {
	return pageSize - pageHeaderSize - slotSize
}
