package workloads

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"mimir/internal/core"
)

// TestWikipediaTextGolden pins the bytes of the Zipf word stream. Every
// Wikipedia experiment and the wall-clock wc-par digest read this
// generator, so a change to the sampler (a faster acceptance test, say)
// must reproduce it bit for bit.
func TestWikipediaTextGolden(t *testing.T) {
	const share = 4 << 20
	for _, tc := range []struct {
		seed uint64
		rank int
		want string
	}{
		{7, 0, "ff0415c51e02e6e85ad23c28d4d68991fd69fc40ccf9908c6feeffa36e6552a6"},
		{7, 1, "d0957c88c0afc271741037f42e8e9c5684742468d5c44964be1cf7f5e2026647"},
		{42, 0, "a9b66eadef94569fc4acc94592afa06195b95d4d4f0946a5bf1b92308e0259ff"},
		{42, 1, "a6ee46bcbc746de9dbd970d5785a7f73cf8f840762c0958f2e48f5c0a01e43ab"},
	} {
		h := sha256.New()
		in := TextInput(nil, nil, Wikipedia, tc.seed, 2*share, tc.rank, 2)
		if err := in(func(rec core.Record) error {
			h.Write(rec.Val)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("seed %d rank %d: sha256 %s, want %s", tc.seed, tc.rank, got, tc.want)
		}
	}
}
