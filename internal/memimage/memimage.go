// Package memimage provides a sparse, paged functional memory image.
//
// Workload generators use it to lay out data structures (notably the linked
// lists that drive pointer-chase workloads) and the timing models use it to
// check that store-load forwarding mechanisms deliver the right values.
package memimage

import (
	"encoding/binary"
	"hash/fnv"
	"sort"
)

const (
	pageShift = 12
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// Image is a sparse byte-addressable memory. The zero value is an empty
// image ready for use; unwritten bytes read as zero.
type Image struct {
	pages map[uint64]*[pageSize]byte
}

// New returns an empty memory image.
func New() *Image {
	return &Image{pages: make(map[uint64]*[pageSize]byte)}
}

func (m *Image) page(addr uint64, create bool) *[pageSize]byte {
	if m.pages == nil {
		if !create {
			return nil
		}
		m.pages = make(map[uint64]*[pageSize]byte)
	}
	pn := addr >> pageShift
	p := m.pages[pn]
	if p == nil && create {
		p = new([pageSize]byte)
		m.pages[pn] = p
	}
	return p
}

// Read8 reads one byte.
func (m *Image) Read8(addr uint64) byte {
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	return p[addr&pageMask]
}

// Write8 writes one byte.
func (m *Image) Write8(addr uint64, v byte) {
	m.page(addr, true)[addr&pageMask] = v
}

// Read64 reads a little-endian 64-bit word. The access may straddle pages.
func (m *Image) Read64(addr uint64) uint64 {
	if off := addr & pageMask; off <= pageSize-8 {
		// Fast path: the word lives on one page — a single map probe.
		p := m.page(addr, false)
		if p == nil {
			return 0
		}
		return binary.LittleEndian.Uint64(p[off : off+8])
	}
	var v uint64
	for i := uint64(0); i < 8; i++ {
		v |= uint64(m.Read8(addr+i)) << (8 * i)
	}
	return v
}

// Write64 writes a little-endian 64-bit word. The access may straddle pages.
func (m *Image) Write64(addr uint64, v uint64) {
	if off := addr & pageMask; off <= pageSize-8 {
		p := m.page(addr, true)
		binary.LittleEndian.PutUint64(p[off:off+8], v)
		return
	}
	for i := uint64(0); i < 8; i++ {
		m.Write8(addr+i, byte(v>>(8*i)))
	}
}

// Cursor reads and writes an image through a one-page cache, so a run
// of accesses to one page costs a single map probe. A cursor belongs to
// the one goroutine building an image; the cache lives in the cursor,
// not the image, because finished images are shared read-only across
// goroutines.
type Cursor struct {
	m  *Image
	pn uint64
	p  *[pageSize]byte // page pn; nil until a materialized page is cached
}

// NewCursor returns a cursor over m.
func NewCursor(m *Image) *Cursor { return &Cursor{m: m} }

// page is Image.page through the cursor's cache.
func (c *Cursor) page(addr uint64, create bool) *[pageSize]byte {
	pn := addr >> pageShift
	if c.p != nil && pn == c.pn {
		return c.p
	}
	p := c.m.page(addr, create)
	if p != nil {
		c.pn, c.p = pn, p
	}
	return p
}

// Read64 is Image.Read64 through the cursor.
func (c *Cursor) Read64(addr uint64) uint64 {
	off := addr & pageMask
	if off > pageSize-8 {
		return c.m.Read64(addr)
	}
	p := c.page(addr, false)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p[off : off+8])
}

// Write64 is Image.Write64 through the cursor.
func (c *Cursor) Write64(addr uint64, v uint64) {
	off := addr & pageMask
	if off > pageSize-8 {
		c.m.Write64(addr, v)
		return
	}
	binary.LittleEndian.PutUint64(c.page(addr, true)[off:off+8], v)
}

// Checksum returns a content hash of the image: identical images (same
// written bytes, regardless of write order) hash identically. Tests use
// it to pin that simulation never mutates a shared workload's memory.
func (m *Image) Checksum() uint64 {
	pns := make([]uint64, 0, len(m.pages))
	for pn := range m.pages {
		pns = append(pns, pn)
	}
	sort.Slice(pns, func(i, j int) bool { return pns[i] < pns[j] })
	h := fnv.New64a()
	var buf [8]byte
	for _, pn := range pns {
		binary.LittleEndian.PutUint64(buf[:], pn)
		h.Write(buf[:])
		h.Write(m.pages[pn][:])
	}
	return h.Sum64()
}

// PageCount returns the number of materialized pages (for tests and for
// sanity-checking workload footprints).
func (m *Image) PageCount() int { return len(m.pages) }

// Footprint returns the total bytes of materialized pages.
func (m *Image) Footprint() uint64 { return uint64(len(m.pages)) * pageSize }
