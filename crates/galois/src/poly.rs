//! Dense polynomials over the prime field GF(p), used to construct
//! extension fields GF(p^n).
//!
//! Coefficients are `u64` values in `[0, p)`; index `i` holds the
//! coefficient of `x^i`. The zero polynomial is the empty vector.

/// A polynomial over GF(p), normalized so the leading coefficient is nonzero.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Poly {
    /// Coefficients, `coeffs[i]` multiplies `x^i`. Empty means zero.
    pub coeffs: Vec<u64>,
}

impl Poly {
    /// Builds a polynomial from coefficients (low degree first), trimming
    /// leading zeros.
    pub fn new(mut coeffs: Vec<u64>) -> Self {
        while coeffs.last() == Some(&0) {
            coeffs.pop();
        }
        Poly { coeffs }
    }

    /// The zero polynomial.
    pub fn zero() -> Self {
        Poly { coeffs: Vec::new() }
    }

    /// Degree of the polynomial; the zero polynomial has degree `None`.
    pub fn degree(&self) -> Option<usize> {
        self.coeffs.len().checked_sub(1)
    }

    pub fn is_zero(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Addition in GF(p)\[x\].
    pub fn add(&self, other: &Poly, p: u64) -> Poly {
        let n = self.coeffs.len().max(other.coeffs.len());
        let mut out = vec![0u64; n];
        for (i, item) in out.iter_mut().enumerate() {
            let a = self.coeffs.get(i).copied().unwrap_or(0);
            let b = other.coeffs.get(i).copied().unwrap_or(0);
            *item = (a + b) % p;
        }
        Poly::new(out)
    }

    /// Multiplication in GF(p)\[x\] (schoolbook; degrees here are tiny).
    pub fn mul(&self, other: &Poly, p: u64) -> Poly {
        if self.is_zero() || other.is_zero() {
            return Poly::zero();
        }
        let mut out = vec![0u64; self.coeffs.len() + other.coeffs.len() - 1];
        for (i, &a) in self.coeffs.iter().enumerate() {
            if a == 0 {
                continue;
            }
            for (j, &b) in other.coeffs.iter().enumerate() {
                out[i + j] = (out[i + j] + a * b) % p;
            }
        }
        Poly::new(out)
    }

    /// Remainder of `self` divided by monic-normalizable `divisor` in GF(p)\[x\].
    ///
    /// Panics if `divisor` is zero.
    pub fn rem(&self, divisor: &Poly, p: u64) -> Poly {
        let d = divisor.degree().expect("division by zero polynomial");
        let lead = *divisor.coeffs.last().unwrap();
        let lead_inv = mod_inv(lead, p);
        let mut r = self.coeffs.clone();
        while r.len() > d {
            let k = r.len() - 1;
            let factor = r[k] * lead_inv % p;
            if factor != 0 {
                // r -= factor * x^(k-d) * divisor
                for (i, &c) in divisor.coeffs.iter().enumerate() {
                    let idx = k - d + i;
                    r[idx] = (r[idx] + p - factor * c % p) % p;
                }
            }
            r.pop();
        }
        Poly::new(r)
    }

    /// Encodes the polynomial as an integer in base `p` (little-endian
    /// digits), the canonical element encoding used by [`crate::Gf`].
    pub fn encode(&self, p: u64) -> u64 {
        let mut v = 0u64;
        for &c in self.coeffs.iter().rev() {
            v = v * p + c;
        }
        v
    }

    /// Decodes an integer in `[0, p^n)` into its base-`p` digit polynomial.
    pub fn decode(mut v: u64, p: u64) -> Poly {
        let mut coeffs = Vec::new();
        while v > 0 {
            coeffs.push(v % p);
            v /= p;
        }
        Poly { coeffs }
    }
}

/// Modular inverse in GF(p) by Fermat's little theorem (`p` prime).
pub fn mod_inv(a: u64, p: u64) -> u64 {
    mod_pow(a % p, p - 2, p)
}

/// Modular exponentiation.
pub fn mod_pow(mut base: u64, mut exp: u64, m: u64) -> u64 {
    let mut acc = 1u64 % m;
    base %= m;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = acc * base % m;
        }
        base = base * base % m;
        exp >>= 1;
    }
    acc
}

/// Tests whether a monic polynomial `f` of degree `n >= 1` is irreducible
/// over GF(p), by trial division with every monic polynomial of degree
/// `1 ..= n/2`. Field orders here are tiny, so exhaustive search is exact
/// and fast.
pub fn is_irreducible(f: &Poly, p: u64) -> bool {
    let n = match f.degree() {
        Some(n) if n >= 1 => n,
        _ => return false,
    };
    if n == 1 {
        return true;
    }
    for d in 1..=n / 2 {
        // Enumerate all monic polynomials of degree d: p^d choices of the
        // lower coefficients.
        let count = p.pow(d as u32);
        for v in 0..count {
            let mut g = Poly::decode(v, p).coeffs;
            g.resize(d, 0);
            g.push(1); // monic
            let g = Poly::new(g);
            if f.rem(&g, p).is_zero() {
                return false;
            }
        }
    }
    true
}

/// Finds the lexicographically-smallest monic irreducible polynomial of
/// degree `n` over GF(p). Deterministic, so a given `(p, n)` always yields
/// the same field representation.
pub fn find_irreducible(p: u64, n: u32) -> Poly {
    assert!(n >= 1);
    let count = p.pow(n);
    for v in 0..count {
        let mut coeffs = Poly::decode(v, p).coeffs;
        coeffs.resize(n as usize, 0);
        coeffs.push(1); // monic of exact degree n
        let f = Poly::new(coeffs);
        if is_irreducible(&f, p) {
            return f;
        }
    }
    unreachable!("an irreducible polynomial of every degree exists over GF(p)")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn poly(c: &[u64]) -> Poly {
        Poly::new(c.to_vec())
    }

    #[test]
    fn add_mul_basics() {
        let p = 5;
        let a = poly(&[1, 2]); // 1 + 2x
        let b = poly(&[4, 3]); // 4 + 3x
        assert_eq!(a.add(&b, p), poly(&[0, 0])); // (1+4, 2+3) ≡ 0 mod 5
        assert_eq!(a.mul(&b, p), poly(&[4, 1, 1])); // 4 + 11x + 6x² mod 5
    }

    #[test]
    fn rem_exact_division() {
        let p = 3;
        let f = poly(&[1, 0, 1]); // 1 + x², irreducible over GF(3)
        let g = poly(&[2, 1]); // 2 + x
        let fg = f.mul(&g, p);
        assert!(fg.rem(&f, p).is_zero());
        assert!(fg.rem(&g, p).is_zero());
        assert_eq!(f.rem(&g, p), poly(&[2])); // (2+x) divides 1+x² with rem 2
    }

    #[test]
    fn encode_decode_roundtrip() {
        for p in [2u64, 3, 5, 7] {
            for v in 0..p.pow(3) {
                assert_eq!(Poly::decode(v, p).encode(p), v);
            }
        }
    }

    #[test]
    fn irreducibility_gf2() {
        // x² + x + 1 is the unique irreducible quadratic over GF(2).
        assert!(is_irreducible(&poly(&[1, 1, 1]), 2));
        assert!(!is_irreducible(&poly(&[1, 0, 1]), 2)); // (x+1)²
        assert!(!is_irreducible(&poly(&[0, 1, 1]), 2)); // x(x+1)
        // x³ + x + 1 is irreducible over GF(2).
        assert!(is_irreducible(&poly(&[1, 1, 0, 1]), 2));
    }

    #[test]
    fn find_irreducible_has_degree_and_is_monic() {
        for (p, n) in [(2u64, 2u32), (2, 3), (3, 2), (3, 3), (5, 2), (7, 2)] {
            let f = find_irreducible(p, n);
            assert_eq!(f.degree(), Some(n as usize));
            assert_eq!(*f.coeffs.last().unwrap(), 1);
            assert!(is_irreducible(&f, p));
        }
    }

    #[test]
    fn rem_of_lower_degree_is_identity() {
        let p = 5;
        let f = poly(&[1, 2]); // degree 1
        let g = poly(&[1, 0, 1]); // degree 2
        assert_eq!(f.rem(&g, p), f);
    }

    #[test]
    fn zero_polynomial_properties() {
        let z = Poly::zero();
        assert!(z.is_zero());
        assert_eq!(z.degree(), None);
        assert_eq!(z.encode(7), 0);
        let f = poly(&[3, 1]);
        assert_eq!(z.mul(&f, 7), Poly::zero());
        assert_eq!(z.add(&f, 7), f);
    }

    #[test]
    #[should_panic(expected = "division by zero polynomial")]
    fn rem_by_zero_panics() {
        poly(&[1, 1]).rem(&Poly::zero(), 3);
    }

    #[test]
    fn new_trims_leading_zeros() {
        assert_eq!(Poly::new(vec![1, 2, 0, 0]), poly(&[1, 2]));
        assert_eq!(Poly::new(vec![0, 0]), Poly::zero());
    }

    #[test]
    fn mod_pow_and_inv() {
        assert_eq!(mod_pow(2, 10, 1000), 24);
        for p in [3u64, 5, 7, 13] {
            for a in 1..p {
                assert_eq!(a * mod_inv(a, p) % p, 1);
            }
        }
    }
}
