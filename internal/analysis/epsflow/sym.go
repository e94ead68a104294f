package epsflow

import (
	"fmt"
	"math/big"
	"sort"
	"strconv"
	"strings"
)

// The symbolic core: epsilon budgets are exact rational functions over a
// small set of interned atoms (the eps parameter, mechanism configuration
// fields, structure-derived counts). Polynomials keep exact *big.Rat
// coefficients so eps/2 + eps/2 closes to eps and rho*eps + (1-rho)*eps
// closes to eps with no floating-point slack; ratios keep their denominators
// as an unexpanded factor list so (k-1) * (eps1/(k-1)) cancels exactly by
// polynomial division even when k is opaque.

// atoms interns symbolic unknowns for one mechanism verification.
type atoms struct {
	names  []string
	isInt  []bool
	byName map[string]int
}

func newAtoms() *atoms { return &atoms{byName: map[string]int{}} }

// intern returns the id for name, creating the atom on first use.
func (a *atoms) intern(name string, integer bool) int {
	if id, ok := a.byName[name]; ok {
		return id
	}
	id := len(a.names)
	a.names = append(a.names, name)
	a.isInt = append(a.isInt, integer)
	a.byName[name] = id
	return id
}

// fresh interns a uniquely-numbered atom with the given stem.
func (a *atoms) fresh(stem string, integer bool) int {
	return a.intern(fmt.Sprintf("%s#%d", stem, len(a.names)), integer)
}

// mono is one monomial: atom id -> positive exponent, encoded canonically.
type mono string

const monoOne mono = ""

func encodeMono(exps map[int]int) mono {
	ids := make([]int, 0, len(exps))
	for id, e := range exps {
		if e != 0 {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	var b []byte
	for i, id := range ids {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(id), 10)
		b = append(b, '^')
		b = strconv.AppendInt(b, int64(exps[id]), 10)
	}
	return mono(b)
}

// decodeMono parses encodeMono's "id^e,id^e" form.
func decodeMono(m mono) map[int]int {
	exps := map[int]int{}
	for s := string(m); s != ""; {
		part, rest, _ := strings.Cut(s, ",")
		id, e, _ := strings.Cut(part, "^")
		i, _ := strconv.Atoi(id)
		n, _ := strconv.Atoi(e)
		exps[i] = n
		s = rest
	}
	return exps
}

func monoMul(a, b mono) mono {
	if a == monoOne {
		return b
	}
	if b == monoOne {
		return a
	}
	ea, eb := decodeMono(a), decodeMono(b)
	for id, e := range eb {
		ea[id] += e
	}
	return encodeMono(ea)
}

// monoDiv returns a/b when every exponent of b is covered by a.
func monoDiv(a, b mono) (mono, bool) {
	ea, eb := decodeMono(a), decodeMono(b)
	for id, e := range eb {
		ea[id] -= e
		if ea[id] < 0 {
			return monoOne, false
		}
	}
	return encodeMono(ea), true
}

// poly is a multivariate polynomial with exact rational coefficients.
type poly map[mono]*big.Rat

func polyConst(r *big.Rat) poly {
	if r.Sign() == 0 {
		return poly{}
	}
	return poly{monoOne: new(big.Rat).Set(r)}
}

func polyFloat(f float64) poly {
	r := new(big.Rat)
	r.SetFloat64(f)
	return polyConst(r)
}

func polyAtom(id int) poly {
	return poly{encodeMono(map[int]int{id: 1}): big.NewRat(1, 1)}
}

func (p poly) clone() poly {
	out := make(poly, len(p))
	for m, c := range p {
		out[m] = new(big.Rat).Set(c)
	}
	return out
}

func (p poly) isZero() bool { return len(p) == 0 }

// isConst reports whether p is a constant, returning it.
func (p poly) isConst() (*big.Rat, bool) {
	switch len(p) {
	case 0:
		return new(big.Rat), true
	case 1:
		if c, ok := p[monoOne]; ok {
			return c, true
		}
	}
	return nil, false
}

func polyAdd(a, b poly) poly {
	out := a.clone()
	for m, c := range b {
		if cur, ok := out[m]; ok {
			cur.Add(cur, c)
			if cur.Sign() == 0 {
				delete(out, m)
			}
		} else {
			out[m] = new(big.Rat).Set(c)
		}
	}
	return out
}

func polyNeg(a poly) poly {
	out := make(poly, len(a))
	for m, c := range a {
		out[m] = new(big.Rat).Neg(c)
	}
	return out
}

func polySub(a, b poly) poly { return polyAdd(a, polyNeg(b)) }

func polyMul(a, b poly) poly {
	out := poly{}
	for ma, ca := range a {
		for mb, cb := range b {
			m := monoMul(ma, mb)
			c := new(big.Rat).Mul(ca, cb)
			if cur, ok := out[m]; ok {
				cur.Add(cur, c)
				if cur.Sign() == 0 {
					delete(out, m)
				}
			} else if c.Sign() != 0 {
				out[m] = c
			}
		}
	}
	return out
}

func polyScale(a poly, c *big.Rat) poly {
	if c.Sign() == 0 {
		return poly{}
	}
	out := make(poly, len(a))
	for m, co := range a {
		out[m] = new(big.Rat).Mul(co, c)
	}
	return out
}

func polyEqual(a, b poly) bool { return polySub(a, b).isZero() }

// monos returns the monomials in canonical order, total degree descending
// and then key, which gives a deterministic leading term for division and
// rendering.
func (p poly) monos() []mono {
	type keyed struct {
		m   mono
		deg int
	}
	ks := make([]keyed, 0, len(p))
	for m := range p {
		ks = append(ks, keyed{m, monoDeg(m)})
	}
	// Each degree is decoded once, not once per comparison.
	sort.Slice(ks, func(i, j int) bool {
		if ks[i].deg != ks[j].deg {
			return ks[i].deg > ks[j].deg
		}
		return ks[i].m < ks[j].m
	})
	out := make([]mono, len(ks))
	for i, k := range ks {
		out[i] = k.m
	}
	return out
}

func monoDeg(m mono) int {
	d := 0
	for _, e := range decodeMono(m) {
		d += e
	}
	return d
}

// polyExactDiv divides a by b exactly, or reports failure. Standard
// leading-term long division under the graded ordering; every divisor the
// analyzer meets is small (a trip count or budget split), so no care about
// performance is needed.
func polyExactDiv(a, b poly) (poly, bool) {
	if b.isZero() {
		return nil, false
	}
	rem := a.clone()
	quot := poly{}
	bm := b.monos()
	lead := bm[0]
	leadC := b[lead]
	for guard := 0; !rem.isZero(); guard++ {
		if guard > 256 {
			return nil, false
		}
		rm := rem.monos()
		q, ok := monoDiv(rm[0], lead)
		if !ok {
			return nil, false
		}
		c := new(big.Rat).Quo(rem[rm[0]], leadC)
		term := poly{q: c}
		quot = polyAdd(quot, term)
		rem = polySub(rem, polyMul(term, b))
	}
	return quot, true
}

// hasAtom reports whether atom id occurs in p.
func (p poly) hasAtom(id int) bool {
	for m := range p {
		if _, ok := decodeMono(m)[id]; ok {
			return true
		}
	}
	return false
}

// substPoint replaces atom id with a constant.
func (p poly) substPoint(id int, v *big.Rat) poly {
	out := poly{}
	for m, c := range p {
		exps := decodeMono(m)
		e, ok := exps[id]
		nc := new(big.Rat).Set(c)
		if ok {
			delete(exps, id)
			for i := 0; i < e; i++ {
				nc.Mul(nc, v)
			}
		}
		nm := encodeMono(exps)
		if cur, has := out[nm]; has {
			cur.Add(cur, nc)
			if cur.Sign() == 0 {
				delete(out, nm)
			}
		} else if nc.Sign() != 0 {
			out[nm] = nc
		}
	}
	return out
}

// rat is an exact rational function: num / product(den factors). Denominator
// factors are kept unexpanded and monic-normalized so symbolic trip counts
// cancel against symbolic budget splits.
type rat struct {
	num poly
	den []poly
}

func ratZero() rat               { return rat{num: poly{}} }
func ratFromPoly(p poly) rat     { return rat{num: p} }
func ratFloat(f float64) rat     { return rat{num: polyFloat(f)} }
func ratAtom(id int) rat         { return rat{num: polyAtom(id)} }
func (r rat) isZero() bool       { return r.num.isZero() }
func (r rat) isPolynomial() bool { return len(r.den) == 0 }

func (r rat) clone() rat {
	out := rat{num: r.num.clone()}
	for _, d := range r.den {
		out.den = append(out.den, d.clone())
	}
	return out
}

// normalize makes each denominator factor monic (leading coefficient 1 under
// the graded order), folding the content into the numerator, then cancels
// factors that divide the numerator exactly.
func (r rat) normalize() rat {
	num := r.num.clone()
	var den []poly
	for _, d := range r.den {
		if c, ok := d.isConst(); ok {
			if c.Sign() == 0 {
				// Division by an identically-zero factor: keep it so the
				// result never silently pretends to be finite; callers treat
				// any zero den factor as an evaluation failure.
				den = append(den, d.clone())
				continue
			}
			num = polyScale(num, new(big.Rat).Inv(c))
			continue
		}
		lead := d.monos()[0]
		lc := new(big.Rat).Set(d[lead])
		monic := polyScale(d, new(big.Rat).Inv(lc))
		num = polyScale(num, new(big.Rat).Inv(lc))
		den = append(den, monic)
	}
	// Cancel factors dividing the numerator.
	var kept []poly
	for _, d := range den {
		if q, ok := polyExactDiv(num, d); ok {
			num = q
			continue
		}
		kept = append(kept, d)
	}
	if num.isZero() {
		kept = nil
	}
	return rat{num: num, den: kept}
}

func (r rat) denProduct() poly {
	out := polyFloat(1)
	for _, d := range r.den {
		out = polyMul(out, d)
	}
	return out
}

func ratAdd(a, b rat) rat {
	num := polyAdd(polyMul(a.num, b.denProduct()), polyMul(b.num, a.denProduct()))
	den := append(append([]poly{}, a.den...), b.den...)
	return rat{num: num, den: den}.normalize()
}

func ratNeg(a rat) rat { return rat{num: polyNeg(a.num), den: a.den} }

func ratSub(a, b rat) rat { return ratAdd(a, ratNeg(b)) }

func ratMul(a, b rat) rat {
	return rat{num: polyMul(a.num, b.num), den: append(append([]poly{}, a.den...), b.den...)}.normalize()
}

// ratDiv divides; dividing by a symbolically-zero value fails.
func ratDiv(a, b rat) (rat, bool) {
	if b.num.isZero() {
		return ratZero(), false
	}
	num := polyMul(a.num, b.denProduct())
	den := append(append([]poly{}, a.den...), b.num)
	return rat{num: num, den: den}.normalize(), true
}

// ratEqual tests exact symbolic equality by cross-multiplication.
func ratEqual(a, b rat) bool {
	return polyEqual(polyMul(a.num, b.denProduct()), polyMul(b.num, a.denProduct()))
}

func (r rat) hasAtom(id int) bool {
	if r.num.hasAtom(id) {
		return true
	}
	for _, d := range r.den {
		if d.hasAtom(id) {
			return true
		}
	}
	return false
}

// isConst reports whether r is a constant.
func (r rat) isConst() (*big.Rat, bool) {
	rn := r.normalize()
	if len(rn.den) != 0 {
		return nil, false
	}
	return rn.num.isConst()
}

// substPoint replaces a point-valued atom throughout.
func (r rat) substPoint(id int, v *big.Rat) rat {
	out := rat{num: r.num.substPoint(id, v)}
	for _, d := range r.den {
		out.den = append(out.den, d.substPoint(id, v))
	}
	return out.normalize()
}

// render gives a deterministic human-readable form for diagnostics.
func (r rat) render(at *atoms) string {
	n := r.normalize()
	num := n.num.render(at)
	if len(n.den) == 0 {
		return num
	}
	parts := make([]string, 0, len(n.den))
	for _, d := range n.den {
		parts = append(parts, "("+d.render(at)+")")
	}
	return "(" + num + ")/" + strings.Join(parts, "")
}

func (p poly) render(at *atoms) string {
	if p.isZero() {
		return "0"
	}
	var b strings.Builder
	for i, m := range p.monos() {
		c := p[m]
		neg := c.Sign() < 0
		abs := new(big.Rat).Abs(c)
		switch {
		case i == 0 && neg:
			b.WriteString("-")
		case i > 0 && neg:
			b.WriteString(" - ")
		case i > 0:
			b.WriteString(" + ")
		}
		coefOne := abs.Cmp(big.NewRat(1, 1)) == 0
		if m == monoOne {
			b.WriteString(ratString(abs))
			continue
		}
		if !coefOne {
			b.WriteString(ratString(abs))
			b.WriteString("*")
		}
		exps := decodeMono(m)
		ids := make([]int, 0, len(exps))
		for id := range exps {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for j, id := range ids {
			if j > 0 {
				b.WriteString("*")
			}
			b.WriteString(at.names[id])
			if exps[id] > 1 {
				b.WriteString("^" + strconv.Itoa(exps[id]))
			}
		}
	}
	return b.String()
}

// ratString renders a big.Rat compactly (integers without denominator).
func ratString(r *big.Rat) string {
	if r.IsInt() {
		return r.Num().String()
	}
	return r.String()
}
