package ftl

// Static wear leveling: the classic cold-data swap. Hot (frequently
// erased) blocks accumulate P/E cycles while blocks pinned under cold
// valid data never cycle; periodically relocating the coldest block's
// data onto the most-worn free block evens the distribution, extending
// the time until the first block reaches its endurance limit. The paper
// relies on FlashSim's wear behaviour implicitly; this implements the
// standard greedy policy so lifetime experiments have a realistic wear
// spread to work with.

// WearStats summarizes the block wear distribution.
type WearStats struct {
	MinPE  int
	MaxPE  int
	MeanPE float64
	// Spread is MaxPE - MinPE, the quantity wear leveling minimizes.
	Spread int
	Swaps  int64 // wear-leveling relocations performed so far
}

// WearStats returns the current wear distribution.
func (f *FTL) WearStats() WearStats {
	ws := WearStats{MinPE: int(^uint(0) >> 1)}
	sum := int64(0)
	for _, pe32 := range f.blockPE {
		pe := int(pe32)
		if pe < ws.MinPE {
			ws.MinPE = pe
		}
		if pe > ws.MaxPE {
			ws.MaxPE = pe
		}
		sum += int64(pe)
	}
	ws.MeanPE = float64(sum) / float64(len(f.blockPE))
	ws.Spread = ws.MaxPE - ws.MinPE
	ws.Swaps = f.wearSwaps
	return ws
}

// LevelWear performs one round of static wear leveling when the wear
// spread exceeds threshold cycles: the fully-written block with the
// lowest P/E count (coldest data) is relocated and erased so its
// landing spot rotates to hotter blocks. It returns the operations
// performed (relocation reads/programs plus one erase); callers charge
// them like GC traffic.
func (f *FTL) LevelWear(threshold int) (OpCount, bool) {
	var ops OpCount
	if f.dead {
		return ops, false
	}
	if threshold <= 0 {
		threshold = 1
	}
	ws := f.WearStats()
	if ws.Spread < threshold {
		return ops, false
	}
	// Coldest victim: minimal P/E among fully-written, non-active
	// blocks holding data.
	victim := -1
	for b := 0; b < f.cfg.Blocks; b++ {
		usable := f.usablePages(f.blockState[b])
		if f.bad.Get(b) || int(f.blockUsed[b]) < usable || f.blockValid[b] == 0 {
			continue
		}
		if (victim == -1 || f.blockPE[b] < f.blockPE[victim]) && !f.isActive(b) {
			victim = b
		}
	}
	if victim == -1 || int(f.blockPE[victim]) > ws.MinPE+threshold/2 {
		return ops, false // cold data already lives on worn blocks
	}
	if !f.reclaim(victim, &ops) {
		return ops, false
	}
	f.wearSwaps++
	return ops, true
}
