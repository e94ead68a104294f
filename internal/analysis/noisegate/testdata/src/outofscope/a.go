// The same draws that noisegate flags under internal/algo are permitted in
// other packages (no want comments: the analyzer must stay silent here).
package experiments

import (
	"math/rand"
)

func seeded() float64 {
	return rand.New(rand.NewSource(1)).Float64()
}
