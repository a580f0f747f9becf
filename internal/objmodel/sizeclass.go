package objmodel

import (
	"fmt"
	"math"
	"sync"

	"bookmarkgc/internal/mem"
)

// The paper's segregated size classes (§3): every allocation size up to
// SmallCutoff gets its own class; above that, LargerClasses classes cover
// sizes up to half a superpage's usable space. The table is designed so
// that worst-case internal fragmentation stays below ~15% for all but the
// largest five classes (which land between roughly 16% and 33%), while
// external fragmentation (the unusable tail of a superpage) stays below
// 25%.
const (
	// SmallCutoff: every block size up to this many bytes is exact.
	SmallCutoff = 64
	// LargerClasses is the number of size classes above SmallCutoff.
	LargerClasses = 37
	// largeDivisorClasses of those are the "five largest": block sizes of
	// the form usable/n for n in 2..6, which pack superpages exactly.
	largeDivisorClasses = 5
	// SuperHeaderBytes is the metadata region reserved at the start of
	// every superpage (always memory-resident, reached by bit-masking).
	SuperHeaderBytes = 512
	// SuperUsableBytes is the allocatable space in one superpage.
	SuperUsableBytes = mem.SuperSize - SuperHeaderBytes
)

// SizeClass describes one segregated allocation class.
type SizeClass struct {
	Index     int
	BlockSize int // bytes per block, including the object header
	Blocks    int // blocks per superpage
}

// ExternalWaste returns the unusable tail bytes of a superpage in this
// class.
func (c SizeClass) ExternalWaste() int {
	return SuperUsableBytes - c.Blocks*c.BlockSize
}

// Classes is the full size-class table plus a size→class lookup index.
type Classes struct {
	classes []SizeClass
	lookup  []int8 // (size/WordSize - 1) -> class index, -1 = large object
	largest int
}

func alignDown(n int) int { return n / mem.WordSize * mem.WordSize }

// BuildClasses returns the size-class table, built once and shared, as
// nothing changes it after construction. It is built deterministically:
//
//   - exact classes at every word multiple from HeaderBytes to SmallCutoff;
//   - a geometric ladder of LargerClasses-largeDivisorClasses classes from
//     SmallCutoff+word up to usable/(largeDivisorClasses+2), giving ≲15%
//     worst-case internal fragmentation;
//   - the largeDivisorClasses largest classes at usable/n for n from
//     largeDivisorClasses+1 down to 2, which waste almost nothing
//     externally but cost 16–33% worst-case internally.
func BuildClasses() *Classes { return sharedClasses() }

var sharedClasses = sync.OnceValue(buildClasses)

func buildClasses() *Classes {
	geoCount := LargerClasses - largeDivisorClasses
	geoTop := alignDown(SuperUsableBytes / (largeDivisorClasses + 2))
	geoBase := SmallCutoff + mem.WordSize

	ratio := math.Pow(float64(geoTop)/float64(geoBase), 1/float64(geoCount-1))
	var larger []int
	s := float64(geoBase)
	prev := SmallCutoff
	for i := 0; i < geoCount; i++ {
		sz := alignDown(int(math.Round(s)))
		if sz <= prev {
			sz = prev + mem.WordSize
		}
		if i == geoCount-1 {
			sz = geoTop
		}
		larger = append(larger, sz)
		prev = sz
		s *= ratio
	}
	for n := largeDivisorClasses + 1; n >= 2; n-- {
		sz := alignDown(SuperUsableBytes / n)
		if sz <= prev {
			panic(fmt.Sprintf("objmodel: divisor class %d not monotonic", n))
		}
		larger = append(larger, sz)
		prev = sz
	}
	if len(larger) != LargerClasses {
		panic(fmt.Sprintf("objmodel: built %d larger classes, want %d", len(larger), LargerClasses))
	}

	var all []int
	for sz := HeaderBytes; sz <= SmallCutoff; sz += mem.WordSize {
		all = append(all, sz)
	}
	all = append(all, larger...)

	c := &Classes{largest: larger[len(larger)-1]}
	for i, sz := range all {
		c.classes = append(c.classes, SizeClass{
			Index:     i,
			BlockSize: sz,
			Blocks:    SuperUsableBytes / sz,
		})
	}
	// lookup[w-1] = smallest class whose block holds w words (w includes
	// the header).
	c.lookup = make([]int8, c.largest/mem.WordSize)
	for i := range c.lookup {
		c.lookup[i] = -1
	}
	ci := 0
	for w := 1; w <= c.largest/mem.WordSize; w++ {
		for ci < len(all) && all[ci] < w*mem.WordSize {
			ci++
		}
		if ci < len(all) {
			c.lookup[w-1] = int8(ci)
		}
	}
	return c
}

// Len returns the number of size classes.
func (c *Classes) Len() int { return len(c.classes) }

// Class returns the i-th size class.
func (c *Classes) Class(i int) SizeClass { return c.classes[i] }

// LargestBlock returns the biggest block size the mature space handles;
// larger objects go to the large object space. This is the paper's
// "half the size of a superpage minus metadata" threshold.
func (c *Classes) LargestBlock() int { return c.largest }

// ForSize returns the class for an object of the given total byte size
// (header included), or ok=false if it belongs in the large object space.
func (c *Classes) ForSize(totalBytes int) (SizeClass, bool) {
	if totalBytes < HeaderBytes {
		totalBytes = HeaderBytes
	}
	w := (totalBytes + mem.WordSize - 1) / mem.WordSize
	if w > c.largest/mem.WordSize {
		return SizeClass{}, false
	}
	idx := c.lookup[w-1]
	if idx < 0 {
		return SizeClass{}, false
	}
	return c.classes[idx], true
}
