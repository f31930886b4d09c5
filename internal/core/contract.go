package core

import (
	"slices"
	"sync"

	"repro/internal/mat"
)

// coreTree is a compressed-sparse-fiber (CSF) tree over the live core
// entries — the fiber tree the Tucker-CSF baseline (internal/csf) builds over
// the data, built here over the core. Level 0 holds the distinct root-mode
// coordinates, each deeper level the distinct coordinates of the next mode
// under its parent's prefix, and the leaves are the entries, values copied
// into tree order. The cached trees serving predict and recommend run the
// modes below the root from N-1 down to 0, so the root-(N-1) tree is the
// offset-sorted entry list with shared prefixes merged; the fit picks its
// own level order (see fitLevels). A tree is immutable and depends only on
// the entry set and the level order, not on the order of the entry list.
type coreTree struct {
	modes []int     // modes[l] is the core mode of level l; modes[0] is the root
	ids   [][]int32 // ids[l][v] is node v's coordinate in mode modes[l]
	ptr   [][]int32 // ptr[l][v]..ptr[l][v+1] are node v's children in level l+1
	val   []float64 // val[v] is leaf v's core value
}

// coreTrees holds the lazily built trees of one entry set, one per root
// mode in the default level order plus the other orders asked for (the
// fit's); clones of a core share it.
type coreTrees struct {
	once []sync.Once
	tree []*coreTree

	mu    sync.Mutex
	other []*coreTree // non-default level orders, found by their modes
}

// treeSet returns the tree set of the current entry set, creating an empty
// one if there is none.
func (c *CoreTensor) treeSet() *coreTrees {
	if ts := c.trees.Load(); ts != nil {
		return ts
	}
	n := len(c.dims)
	c.trees.CompareAndSwap(nil, &coreTrees{once: make([]sync.Once, n), tree: make([]*coreTree, n)})
	return c.trees.Load()
}

// tree returns the tree rooted at mode root in the default level order,
// building it on first use; safe for concurrent callers.
func (c *CoreTensor) tree(root int) *coreTree {
	ts := c.treeSet()
	ts.once[root].Do(func() { ts.tree[root] = c.buildTree(defaultLevels(root, len(c.dims))) })
	return ts.tree[root]
}

// treeFor returns the tree with the given level order, building it on first
// use and keeping it until the entries or their values change; safe for
// concurrent callers.
func (c *CoreTensor) treeFor(levels []int) *coreTree {
	// The default order is the only one whose levels below the root descend.
	if slices.IsSortedFunc(levels[1:], func(a, b int) int { return b - a }) {
		return c.tree(levels[0])
	}
	ts := c.treeSet()
	ts.mu.Lock()
	defer ts.mu.Unlock()
	for _, t := range ts.other {
		if slices.Equal(t.modes, levels) {
			return t
		}
	}
	t := c.buildTree(levels)
	ts.other = append(ts.other, t)
	return t
}

// resetTrees drops the trees after the entries or their values changed;
// clones that shared them keep them.
func (c *CoreTensor) resetTrees() { c.trees.Store(nil) }

// defaultLevels is the level order of the cached tree rooted at root: the
// root, then the other modes from N-1 down to 0.
func defaultLevels(root, n int) []int {
	levels := []int{root}
	for k := n - 1; k >= 0; k-- {
		if k != root {
			levels = append(levels, k)
		}
	}
	return levels
}

// buildTree builds the tree with the given level order (levels[0] the root,
// the last level the leaves) in O(N·|G|): one stable counting pass per
// level, leaves first, sorts the entries lexicographically by their level
// coordinates, and each entry then opens a node at every level from the
// first where its path leaves the previous entry's.
func (c *CoreTensor) buildTree(levels []int) *coreTree {
	n := len(c.dims)
	modes := slices.Clone(levels)
	perm := make([]int32, len(c.val))
	for i := range perm {
		perm[i] = int32(i)
	}
	for l := n - 1; l >= 0; l-- {
		perm = c.sortByMode(perm, modes[l])
	}
	t := &coreTree{modes: modes, ids: make([][]int32, n), ptr: make([][]int32, n-1), val: make([]float64, len(perm))}
	prev := -1
	for i, e := range perm {
		base, l := int(e)*n, 0
		for prev >= 0 && l < n-1 && c.idx[base+modes[l]] == c.idx[prev+modes[l]] {
			l++
		}
		for ; l < n; l++ {
			if l < n-1 {
				t.ptr[l] = append(t.ptr[l], int32(len(t.ids[l+1])))
			}
			t.ids[l] = append(t.ids[l], int32(c.idx[base+modes[l]]))
		}
		t.val[i] = c.val[e]
		prev = base
	}
	for l := range t.ptr {
		t.ptr[l] = append(t.ptr[l], int32(len(t.ids[l+1])))
	}
	return t
}

// offsetOrder returns the entry positions in ascending little-endian offset
// order (mode 0 fastest), stable among equal offsets: an LSD radix sort of
// one counting pass per mode.
func (c *CoreTensor) offsetOrder() []int32 {
	perm := make([]int32, len(c.val))
	for i := range perm {
		perm[i] = int32(i)
	}
	for k := range c.dims {
		perm = c.sortByMode(perm, k)
	}
	return perm
}

// sortByMode returns perm stably counting-sorted by the mode-k coordinate.
func (c *CoreTensor) sortByMode(perm []int32, k int) []int32 {
	n := len(c.dims)
	start := make([]int32, c.dims[k]+1)
	for _, e := range perm {
		start[c.idx[int(e)*n+k]+1]++
	}
	for j := 1; j < len(start); j++ {
		start[j] += start[j-1]
	}
	out := make([]int32, len(perm))
	for _, e := range perm {
		j := c.idx[int(e)*n+k]
		out[start[j]] = e
		start[j]++
	}
	return out
}

// foldCursor is what a resumable contraction keeps between calls: every
// level's node sums and the coordinates they were folded with. The zero
// value is a fresh cursor.
type foldCursor struct {
	tree  *coreTree   // the tree the sums were folded on; nil: nothing to resume
	at    []int32     // the coordinates, by mode, of the last fold
	level [][]float64 // level[l] holds level l's node sums, l < leaf
	sums  []float64   // backing store of level
}

// reset sizes the cursor for t and forgets what it folded; with keep set,
// the next fold on t records its coordinates so later calls can resume.
func (cur *foldCursor) reset(t *coreTree, keep bool) {
	n := len(t.modes)
	if cap(cur.level) < n || cap(cur.at) < n {
		cur.level = make([][]float64, n)
		cur.at = make([]int32, n)
	}
	cur.level, cur.at = cur.level[:n-1], cur.at[:n]
	need := 0
	for l := range cur.level {
		need += len(t.ids[l])
	}
	if cap(cur.sums) < need {
		cur.sums = make([]float64, need)
	}
	cur.sums = cur.sums[:need]
	off := 0
	for l := range cur.level {
		cur.level[l] = cur.sums[off : off+len(t.ids[l])]
		off += len(t.ids[l])
	}
	cur.tree = nil
	if keep {
		cur.tree = t
	}
}

// contract writes out[j] = Σ_{β: β_root=j} Gβ ∏_{k≠root} rows[k][βk] for
// every root coordinate j (len(out) = dims[root]); rows[root] is never read.
// It folds the tree bottom-up one level at a time — the leaves into their
// parents as Σ Gβ·a[id], then each level into the one above as Σ s·a[id] —
// so every node below the root costs one multiply and one index load: about
// |G|·(1 + 1/J + …) multiplies against the (N-1)·|G| of expanding each
// entry.
//
// The fold resumes from cur. When at is non-nil it holds the coordinates,
// indexed by mode, that rows were taken at. Level l's fold reads only the
// coordinates of level l and the levels below it, so a call refolds from
// the deepest level whose coordinate differs from cur's previous call on
// this tree, and a call that differs only in the root refolds nothing:
// calls ordered by the leaf coordinate, then the next level's, skip most of
// the work (the fit's row layout). The caller resets cur whenever the
// factor values behind rows change. With at nil — predict, recommend — or
// a cursor last used on another tree, every level is folded, and a nil at
// leaves nothing to resume. A resumed fold is bit-identical to a full one:
// each level sum is the same sequence of operations on the same inputs.
func (t *coreTree) contract(rows [][]float64, at []int32, out []float64, cur *foldCursor) {
	clear(out)
	leaf := len(t.modes) - 1
	if leaf == 0 {
		for v, id := range t.ids[0] {
			out[id] += t.val[v]
		}
		return
	}
	l := leaf
	if at != nil && cur.tree == t {
		for l > 0 && at[t.modes[l]] == cur.at[t.modes[l]] {
			l--
		}
	} else {
		cur.reset(t, at != nil)
	}
	src := t.val
	if l < leaf {
		src = cur.level[l]
	}
	for ; l > 0; l-- {
		dst := cur.level[l-1]
		foldLevel(dst, src, t.ids[l], t.ptr[l-1], rows[t.modes[l]])
		src = dst
	}
	if at != nil {
		copy(cur.at, at)
	}
	for v, id := range t.ids[0] {
		out[id] = src[v]
	}
}

// foldLevel sets dst[v] = Σ_{c=ptr[v]}^{ptr[v+1]-1} src[c]·a[ids[c]].
func foldLevel(dst, src []float64, ids, ptr []int32, a []float64) {
	c := ptr[0]
	for v := range dst {
		var s float64
		for end := ptr[v+1]; c < end; c++ {
			s += src[c] * a[ids[c]]
		}
		dst[v] = s
	}
}

// predict evaluates Eq. (4), Σ_β Gβ ∏_k rows[k][βk], as
// rows[N-1]·contract_{N-1}(rows), a full fold. out needs dims[N-1] slots.
func (c *CoreTensor) predict(rows [][]float64, out []float64, cur *foldCursor) float64 {
	last := len(c.dims) - 1
	c.tree(last).contract(rows, nil, out, cur)
	return mat.Dot(rows[last], out)
}

// entryProduct returns Gβ(e)·∏_{k≠skip} rows[k][βk(e)] (skip < 0 multiplies
// every mode): the per-entry product the P-Tucker-Cache table memoizes and
// truncation scoring ranks, where entries cannot be merged into a tree.
func (c *CoreTensor) entryProduct(e, skip int, rows [][]float64) float64 {
	n := len(c.dims)
	p := c.val[e]
	for k, j := range c.idx[e*n : (e+1)*n] {
		if k != skip {
			p *= rows[k][j]
		}
	}
	return p
}
