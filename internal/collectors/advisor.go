package collectors

import "bookmarkgc/internal/gc"

// AdvisedGenMS is GenMS with an Alonso–Appel-style heap-sizing advisor
// (related work, §6 of the paper): after every collection it consults the
// VM for available memory and resizes its heap budget accordingly. The
// paper's point — reproduced by the ablation experiment — is that
// resizing alone cannot eliminate collector-induced paging: the advisor
// only reacts after a full collection has already touched whatever was
// evicted, and it never returns specific pages to the kernel.
type AdvisedGenMS struct {
	*GenMS
	maxPages int
}

var _ gc.Collector = (*AdvisedGenMS)(nil)

// NewAdvisedGenMS creates the advised variant; the configured heap is its
// upper bound.
func NewAdvisedGenMS(env *gc.Env) *AdvisedGenMS {
	c := &AdvisedGenMS{GenMS: NewGenMS(env), maxPages: env.HeapPages}
	// The original polls "after each garbage collection": an allocation
	// that collected consults the advisor once it is done, never between
	// rungs.
	c.Ladder.Climbed = c.advise
	return c
}

// Name implements gc.Collector.
func (c *AdvisedGenMS) Name() string { return "GenMSAdvisor" }

// Collect implements gc.Collector: collect, then consult the advisor.
func (c *AdvisedGenMS) Collect(full bool) {
	c.GenMS.Collect(full)
	c.advise()
}

// advise resizes the heap budget to current usage plus a share of the
// machine's free memory.
func (c *AdvisedGenMS) advise() {
	free := c.E.Proc.FreeFramesHint()
	target := c.MatureUsedPages() + free*3/4
	if floor := c.MatureUsedPages() + 2*gc.MinNurseryPages; target < floor {
		target = floor
	}
	if target > c.maxPages {
		target = c.maxPages
	}
	c.E.HeapPages = target
	c.resizeNursery()
}
