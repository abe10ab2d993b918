// Package pattern generates the address sequences covert channels walk
// over the shared array.
//
// The central design problem (Section 3.3 of the paper) is to find a
// sequence that (a) spreads over most LLC sets, so the cache can buffer a
// large sender-receiver gap, and (b) is not learnable by the hardware
// prefetchers. The paper's answer, Equations (1)-(3), is the XY pattern
// with stride x=3 over y=2 interleaved pages, starting mid-page at line 14:
//
//	Pg-num      = 2 * int(3*i/128) + i%2
//	Cl-num      = (14 + 3*int(i/2)) % 64
//	array-index = (Pg-num*4096 + Cl-num*64) % arr-sz
//
// This package provides that pattern in parametric form (any x, y — used to
// regenerate Table 1), the naive one-line-per-page pattern of prior work,
// and a plain sequential pattern, plus a coverage analyzer.
package pattern

import (
	"fmt"
	"math/bits"

	"streamline/internal/mem"
)

// Pattern maps a bit index to a byte offset inside a shared array of the
// given size. Implementations are pure functions of (i, arrSize).
type Pattern interface {
	// Name identifies the pattern in experiment output.
	Name() string
	// Offset returns the byte offset of bit i's cache line within an
	// array of arrSize bytes.
	Offset(i uint64, arrSize int) int
}

// FillAddrs fills dst with the addresses of bits start..start+len(dst)-1
// of pattern p over an array of arrSize bytes based at base: base plus
// Offset(i, arrSize) for each bit i. The agents' hot loops consume
// addresses through chunk buffers filled here.
func FillAddrs(p Pattern, dst []mem.Addr, base mem.Addr, start uint64, arrSize int) {
	for j := range dst {
		dst[j] = base + mem.Addr(p.Offset(start+uint64(j), arrSize))
	}
}

// XY is the parametric strided pattern: every x-th cache line within a
// page, with lines from y pages accessed before the next line of the same
// page. Start is the first line index within each page (the paper found
// mid-page starts fool the stride tracker best and uses 14).
type XY struct {
	X, Y  int
	Start int
	geom  mem.Geometry

	// Offset runs once per transmitted bit, so its divisions matter. The
	// geometry guarantees lines-per-page is a power of two; when Y is one
	// too (the paper's default y=2), every division in Equations (1)-(3)
	// is a shift. yShift is log2(Y), or -1 when Y is not a power of two.
	yShift   int
	lppShift uint
}

// NewXY builds an XY pattern for the given geometry. It panics on
// non-positive x or y: patterns are built from compile-time experiment
// tables.
func NewXY(g mem.Geometry, x, y, start int) *XY {
	if x <= 0 || y <= 0 {
		panic(fmt.Sprintf("pattern: invalid XY parameters x=%d y=%d", x, y))
	}
	p := &XY{X: x, Y: y, Start: start, geom: g,
		yShift:   -1,
		lppShift: uint(bits.TrailingZeros(uint(g.LinesPerPage()))),
	}
	if y&(y-1) == 0 {
		p.yShift = bits.TrailingZeros(uint(y))
	}
	return p
}

// NewStreamline returns the paper's transmission pattern (x=3, y=2,
// start=14) for the given geometry.
func NewStreamline(g mem.Geometry) *XY { return NewXY(g, 3, 2, 14) }

// Name implements Pattern.
func (p *XY) Name() string {
	if p.X == 3 && p.Y == 2 && p.Start == 14 {
		return "streamline"
	}
	return fmt.Sprintf("xy(x=%d,y=%d)", p.X, p.Y)
}

// Offset implements Pattern, generalizing Equations (1)-(3).
func (p *XY) Offset(i uint64, arrSize int) int {
	lpp := uint64(p.geom.LinesPerPage())
	x, y := uint64(p.X), uint64(p.Y)
	var pg, cl uint64
	if p.yShift >= 0 {
		pg = y*((x*i)>>(p.lppShift+uint(p.yShift))) + i&(y-1)
		cl = (uint64(p.Start) + x*(i>>uint(p.yShift))) & (lpp - 1)
	} else {
		pg = y*(x*i/(lpp*y)) + i%y
		cl = (uint64(p.Start) + x*(i/y)) % lpp
	}
	off := pg*uint64(p.geom.PageBytes) + cl*uint64(p.geom.LineBytes)
	if sz := uint64(arrSize); sz&(sz-1) == 0 {
		return int(off & (sz - 1))
	}
	return int(off % uint64(arrSize))
}

// LapBits returns how many bits the pattern transmits before its offsets
// wrap around an array of arrSize bytes (i.e. before Pg-num leaves the
// array). This is the thrashing period central to Table 4.
func (p *XY) LapBits(arrSize int) uint64 {
	pages := uint64(arrSize / p.geom.PageBytes)
	if pages == 0 {
		return 0
	}
	lpp := uint64(p.geom.LinesPerPage())
	x, y := uint64(p.X), uint64(p.Y)
	// Find the smallest i whose page number reaches the array end.
	lo, hi := uint64(0), pages*lpp/x+lpp*y+1
	for lo < hi {
		mid := (lo + hi) / 2
		pg := y*(x*mid/(lpp*y)) + mid%y
		if pg >= pages {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// NaivePerPage is the prior-work pattern that accesses one cache line per
// page: it trivially fools the prefetcher but covers very few LLC sets
// (the line-in-page bits of the set index are constant).
type NaivePerPage struct {
	geom mem.Geometry
	// Line is the fixed line-in-page each access uses.
	Line int
}

// NewNaivePerPage returns the one-line-per-page pattern.
func NewNaivePerPage(g mem.Geometry) *NaivePerPage { return &NaivePerPage{geom: g} }

// Name implements Pattern.
func (p *NaivePerPage) Name() string { return "naive-per-page" }

// Offset implements Pattern.
func (p *NaivePerPage) Offset(i uint64, arrSize int) int {
	off := i*uint64(p.geom.PageBytes) + uint64(p.Line*p.geom.LineBytes)
	return int(off % uint64(arrSize))
}

// Sequential accesses consecutive cache lines; maximal set coverage but
// fully predictable by even a next-line prefetcher.
type Sequential struct {
	geom mem.Geometry
}

// NewSequential returns the sequential pattern.
func NewSequential(g mem.Geometry) *Sequential { return &Sequential{geom: g} }

// Name implements Pattern.
func (p *Sequential) Name() string { return "sequential" }

// Offset implements Pattern.
func (p *Sequential) Offset(i uint64, arrSize int) int {
	return int(i * uint64(p.geom.LineBytes) % uint64(arrSize))
}

// Coverage summarizes how a pattern maps onto an LLC in one lap.
type Coverage struct {
	SetsTouched   int     // distinct LLC sets used
	TotalSets     int     // LLC set count
	Fraction      float64 // SetsTouched / TotalSets
	DistinctLines int     // distinct lines accessed in the sampled window
	// BufferLines estimates how many in-flight lines the LLC can hold
	// for this pattern: sets touched times ways.
	BufferLines int
}

// AnalyzeCoverage walks bits lap indices of the pattern over an array of
// arrSize bytes mapped at base, and reports LLC set coverage for a cache
// with llcSets sets and llcWays ways.
func AnalyzeCoverage(p Pattern, g mem.Geometry, base mem.Addr, arrSize int, bits uint64, llcSets, llcWays int) Coverage {
	sets := make([]bool, llcSets)
	lines := make(map[mem.Line]struct{}, bits)
	mask := uint64(llcSets - 1)
	for i := uint64(0); i < bits; i++ {
		a := base + mem.Addr(p.Offset(i, arrSize))
		l := g.LineOf(a)
		sets[uint64(l)&mask] = true
		lines[l] = struct{}{}
	}
	cov := Coverage{TotalSets: llcSets, DistinctLines: len(lines)}
	for _, used := range sets {
		if used {
			cov.SetsTouched++
		}
	}
	cov.Fraction = float64(cov.SetsTouched) / float64(llcSets)
	cov.BufferLines = cov.SetsTouched * llcWays
	return cov
}
