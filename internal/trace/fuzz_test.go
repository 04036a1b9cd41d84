package trace

import (
	"bytes"
	"testing"
)

// FuzzReadJSON feeds arbitrary text to the trace decoder, the one
// reader of trace files: it must never panic, and re-encoding anything
// it accepts must be byte-stable — encoding what the first re-encoding
// decodes gives the same bytes.
func FuzzReadJSON(f *testing.F) {
	f.Add(`{"program":"x","m":64,"n":8,"c":4,"rounds":[{"alloc":[1,2]}]}`)
	f.Add(`{"program":"y","m":64,"n":8,"c":-1,"rounds":[{"alloc":[4]},{"free":[0],"alloc":[]}]}`)
	f.Add(`{"rounds":null}`)
	f.Add(`{}`)
	f.Add(`not json`)
	f.Fuzz(func(t *testing.T, data string) {
		tr, err := ReadJSON(bytes.NewReader([]byte(data)))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := tr.WriteJSON(&first); err != nil {
			t.Fatalf("accepted trace failed to re-encode: %v", err)
		}
		back, err := ReadJSON(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded trace failed to decode: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := back.WriteJSON(&second); err != nil {
			t.Fatalf("decoded re-encoding failed to encode: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("re-encoding is not byte-stable:\n%s%s", first.Bytes(), second.Bytes())
		}
	})
}
