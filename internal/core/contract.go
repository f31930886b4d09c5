package core

import (
	"sync"

	"repro/internal/mat"
)

// coreTree is a compressed-sparse-fiber (CSF) tree over the live core
// entries — the fiber tree the Tucker-CSF baseline (internal/csf) builds over
// the data, built here over the core. Level 0 holds the distinct root-mode
// coordinates, each deeper level the distinct coordinates of the next mode
// under its parent's prefix, and the leaves are the entries, values copied
// into tree order. Below the root the modes run from N-1 down to 0, so the
// root-(N-1) tree is the offset-sorted entry list with shared prefixes
// merged. A tree is immutable and depends only on the entry set, not on the
// order of the entry list.
type coreTree struct {
	modes []int     // modes[l] is the core mode of level l; modes[0] is the root
	ids   [][]int32 // ids[l][v] is node v's coordinate in mode modes[l]
	ptr   [][]int32 // ptr[l][v]..ptr[l][v+1] are node v's children in level l+1
	val   []float64 // val[v] is leaf v's core value
}

// coreTrees holds the lazily built trees of one entry set, one per root
// mode; clones of a core share it.
type coreTrees struct {
	once []sync.Once
	tree []*coreTree
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

// tree returns the tree rooted at mode root, building it on first use; safe
// for concurrent callers.
func (c *CoreTensor) tree(root int) *coreTree {
	ts := c.treeSet()
	ts.once[root].Do(func() { ts.tree[root] = c.buildTree(root) })
	return ts.tree[root]
}

// resetTrees drops the trees after the entries or their values changed;
// clones that shared them keep them.
func (c *CoreTensor) resetTrees() { c.trees.Store(nil) }

// buildTree builds the tree rooted at mode root in O(N·|G|): offsetOrder
// sorts the entries by (i_{N-1}, …, i_0), one more stable counting pass
// over the root coordinate gives any other root's order (i_root, i_{N-1},
// …, i_0), and each entry then opens a node at every level from the first
// where its path leaves the previous entry's.
func (c *CoreTensor) buildTree(root int) *coreTree {
	n := len(c.dims)
	modes := []int{root}
	for k := n - 1; k >= 0; k-- {
		if k != root {
			modes = append(modes, k)
		}
	}
	perm := c.offsetOrder()
	if root != n-1 {
		perm = c.sortByMode(perm, root)
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

// contract writes out[j] = Σ_{β: β_root=j} Gβ ∏_{k≠root} rows[k][βk] for
// every root coordinate j (len(out) = dims[root]); rows[root] is never read.
// It folds the tree bottom-up one level at a time — the leaves into their
// parents as Σ Gβ·a[id], then each level into the one above as Σ s·a[id] —
// so every node below the root costs one multiply and one index load: about
// |G|·(1 + 1/J + …) multiplies against the (N-1)·|G| of expanding each
// entry. buf holds the level sums in place and needs NNZ() slots.
func (t *coreTree) contract(rows [][]float64, out, buf []float64) {
	clear(out)
	leaf := len(t.modes) - 1
	if leaf == 0 {
		for v, id := range t.ids[0] {
			out[id] += t.val[v]
		}
		return
	}
	sums := buf[:len(t.ids[leaf-1])]
	foldLevel(sums, t.val, t.ids[leaf], t.ptr[leaf-1], rows[t.modes[leaf]])
	for l := leaf - 1; l > 0; l-- {
		// In place: node v's children start at ptr[v] ≥ v, so sums[v] is
		// overwritten only after every read of it.
		foldLevel(sums[:len(t.ids[l-1])], sums, t.ids[l], t.ptr[l-1], rows[t.modes[l]])
	}
	for v, id := range t.ids[0] {
		out[id] = sums[v]
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
// rows[N-1]·contract_{N-1}(rows). out needs dims[N-1] slots and buf NNZ().
func (c *CoreTensor) predict(rows [][]float64, out, buf []float64) float64 {
	last := len(c.dims) - 1
	c.tree(last).contract(rows, out, buf)
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
