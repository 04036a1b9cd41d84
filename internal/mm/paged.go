package mm

const (
	pageBits = 10
	pageLen  = 1 << pageBits
)

// Paged is an array over the keys [0, n), such as the addresses of a
// heap, whose pages of 1024 entries are made on their first write: its
// memory follows the range of keys written, not n. An unwritten key
// reads as the zero T. The zero value holds no keys until Reset.
type Paged[T any] struct {
	pages []*[pageLen]T
}

// Reset empties the array and sizes it for the keys [0, n).
func (p *Paged[T]) Reset(n int64) {
	p.pages = make([]*[pageLen]T, (n+pageLen-1)>>pageBits)
}

// Get returns the entry at key k.
func (p *Paged[T]) Get(k int64) T {
	if pg := p.pages[k>>pageBits]; pg != nil {
		return pg[k&(pageLen-1)]
	}
	var zero T
	return zero
}

// Set stores v at key k.
func (p *Paged[T]) Set(k int64, v T) {
	pg := p.pages[k>>pageBits]
	if pg == nil {
		pg = new([pageLen]T)
		p.pages[k>>pageBits] = pg
	}
	pg[k&(pageLen-1)] = v
}
