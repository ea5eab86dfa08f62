package pmap

import "numasim/internal/numa"

// resTable is a pmap's residency index: which logical page is resident at
// each virtual page number. It used to be a map[uint32]*numa.Page; the VM
// layer allocates virtual addresses densely from a low base, so the table
// is now a page-index-addressed slice — O(1) lookup with no hashing on
// the fault path, and teardown walks it in VPN order for free (the map
// form needed a sort to keep frame free-lists deterministic).
type resTable struct {
	pages []*numa.Page // indexed by VPN; nil = no mapping entered
}

// set records pg as resident at vpn, growing the table as needed.
//
//numalint:hotpath
func (t *resTable) set(vpn uint32, pg *numa.Page) {
	if int(vpn) >= len(t.pages) {
		//numalint:coldpath table growth: append reallocates only when the high-water VPN passes a capacity that grows geometrically
		t.pages = append(t.pages, make([]*numa.Page, int(vpn)+1-len(t.pages))...)
	}
	t.pages[vpn] = pg
}

// del clears vpn's entry. Deleting an absent entry is a no-op, matching
// the map form.
func (t *resTable) del(vpn uint32) {
	if int(vpn) < len(t.pages) {
		t.pages[vpn] = nil
	}
}
