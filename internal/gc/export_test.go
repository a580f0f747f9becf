package gc

// TakeWorkLists empties the process's gray-stack free list and returns
// what it held, so a test can start from none; PutWorkLists puts them
// back.
func TakeWorkLists() []*WorkList {
	var ws []*WorkList
	for {
		w, ok := freeWorkLists.Get()
		if !ok {
			return ws
		}
		ws = append(ws, w)
	}
}

// PutWorkLists returns ws to the process's gray-stack free list.
func PutWorkLists(ws []*WorkList) { freeWorkLists.Put(ws...) }
