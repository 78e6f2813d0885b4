package irinterp

import "encoding/binary"

// Simulated memory is a sparse page table: 64 KiB pages in a slice
// indexed by addr>>pageShift, each allocated zeroed on first write. A
// run pays only for the pages it touches, although the stack sits at
// 48 MB. Reads of untouched pages see zeroPage and allocate nothing.
const (
	pageShift = 16
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

type page [pageSize]byte

// zeroPage stands in for every untouched page on the read side; it is
// never written.
var zeroPage page

type memory struct {
	pages []*page
}

// readPage returns the page holding addr for reading.
func (mem *memory) readPage(addr int64) *page {
	if idx := addr >> pageShift; idx < int64(len(mem.pages)) {
		if p := mem.pages[idx]; p != nil {
			return p
		}
	}
	return &zeroPage
}

// writePage returns the page holding addr for writing, allocating it
// (and growing the table) on first touch.
func (mem *memory) writePage(addr int64) *page {
	idx := addr >> pageShift
	if idx >= int64(len(mem.pages)) {
		mem.pages = append(mem.pages, make([]*page, idx+1-int64(len(mem.pages)))...)
	}
	p := mem.pages[idx]
	if p == nil {
		p = new(page)
		mem.pages[idx] = p
	}
	return p
}

// chunk is how many of the n bytes from addr lie in addr's page.
func chunk(addr, n int64) int64 {
	return min64(n, pageSize-addr&pageMask)
}

// fill sets n bytes from addr to b. Zero fills skip untouched pages,
// which already read as zero.
func (mem *memory) fill(addr, n int64, b byte) {
	for n > 0 {
		c := chunk(addr, n)
		off := addr & pageMask
		if b == 0 {
			if p := mem.readPage(addr); p != &zeroPage {
				clear(p[off : off+c])
			}
		} else {
			s := mem.writePage(addr)[off : off+c]
			for i := range s {
				s[i] = b
			}
		}
		addr, n = addr+c, n-c
	}
}

// read copies len(buf) bytes from addr into buf.
func (mem *memory) read(addr int64, buf []byte) {
	for len(buf) > 0 {
		c := chunk(addr, int64(len(buf)))
		off := addr & pageMask
		copy(buf[:c], mem.readPage(addr)[off:off+c])
		addr, buf = addr+c, buf[c:]
	}
}

// write copies buf to addr.
func (mem *memory) write(addr int64, buf []byte) {
	for len(buf) > 0 {
		c := chunk(addr, int64(len(buf)))
		off := addr & pageMask
		copy(mem.writePage(addr)[off:off+c], buf[:c])
		addr, buf = addr+c, buf[c:]
	}
}

// move copies n bytes from src to dst with memmove semantics. It walks
// pieces that stay inside one source and one destination page, forward
// when dst is below src and backward otherwise, so an overlapping
// source byte is always read before it is overwritten.
func (mem *memory) move(dst, src, n int64) {
	if n <= 0 || dst == src {
		return
	}
	if dst < src {
		for done := int64(0); done < n; {
			d, s := dst+done, src+done
			c := min64(chunk(d, n-done), chunk(s, n-done))
			dp := mem.writePage(d)
			sp := mem.readPage(s)
			copy(dp[d&pageMask:d&pageMask+c], sp[s&pageMask:s&pageMask+c])
			done += c
		}
		return
	}
	for end := n; end > 0; {
		// The piece ends at end and starts no earlier than the start of
		// the pages holding the last source and destination byte.
		d, s := dst+end, src+end
		c := min64(end, min64((d-1)&pageMask+1, (s-1)&pageMask+1))
		d, s = d-c, s-c
		dp := mem.writePage(d)
		sp := mem.readPage(s)
		copy(dp[d&pageMask:d&pageMask+c], sp[s&pageMask:s&pageMask+c])
		end -= c
	}
}

// checkAddr traps unless [addr, addr+size) lies between the globals
// base and the memory limit. It is written so that addr+size cannot
// overflow.
func (m *machine) checkAddr(addr, size int64) {
	if addr < globalBase || addr > m.opts.MemLimit-size {
		m.trapOOB(addr, size)
	}
}

func (m *machine) trapOOB(addr, size int64) {
	m.trap("out-of-bounds access at %#x (size %d)", addr, size)
}

func (m *machine) store64(addr int64, bits uint64) {
	m.checkAddr(addr, 8)
	if off := addr & pageMask; off <= pageSize-8 {
		binary.LittleEndian.PutUint64(m.mem.writePage(addr)[off:], bits)
		return
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], bits)
	m.mem.write(addr, buf[:])
}

func (m *machine) load64(addr int64) uint64 {
	m.checkAddr(addr, 8)
	if off := addr & pageMask; off <= pageSize-8 {
		return binary.LittleEndian.Uint64(m.mem.readPage(addr)[off:])
	}
	var buf [8]byte
	m.mem.read(addr, buf[:])
	return binary.LittleEndian.Uint64(buf[:])
}
