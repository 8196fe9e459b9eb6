//! Discrete cosine transform (type II and its inverse, type III).
//!
//! pHash computes "a feature vector of 64 elements … from the Discrete
//! Cosine Transform among the different frequency domains of the image"
//! (§2.2). This module implements the orthonormal 2-D DCT-II used by
//! `meme-phash` and by the JPEG-like quantization perturbation in
//! [`crate::transform`].
//!
//! For the pipeline's fixed 32×32 hash size a planner ([`Dct2d`]) with a
//! precomputed cosine matrix turns the transform into two small
//! matrix multiplications, which is both simple and fast at this size.

/// Sums [`Dct2d::forward_topleft_into`] runs side by side.
const LANES: usize = 8;

/// A planned 2-D DCT for a fixed square size `n`.
///
/// Holds the orthonormal DCT-II basis matrix `C` (`n × n`, row-major,
/// `C[k][x] = s(k) * cos(pi (2x+1) k / (2n))`). Forward transform is
/// `C * X * C^T`; inverse is `C^T * X * C`.
#[derive(Debug, Clone)]
pub struct Dct2d {
    n: usize,
    basis: Vec<f64>,
    /// `C^T`, row-major: `basis_t[x * n + k] == basis[k * n + x]`.
    basis_t: Vec<f64>,
}

impl Dct2d {
    /// Plan a DCT of size `n × n`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "DCT size must be non-zero");
        let mut basis = vec![0.0f64; n * n];
        let norm0 = (1.0 / n as f64).sqrt();
        let norm = (2.0 / n as f64).sqrt();
        for k in 0..n {
            let s = if k == 0 { norm0 } else { norm };
            for x in 0..n {
                basis[k * n + x] = s
                    * (std::f64::consts::PI * (2.0 * x as f64 + 1.0) * k as f64 / (2.0 * n as f64))
                        .cos();
            }
        }
        let mut basis_t = vec![0.0f64; n * n];
        for k in 0..n {
            for x in 0..n {
                basis_t[x * n + k] = basis[k * n + x];
            }
        }
        Self { n, basis, basis_t }
    }

    /// Transform size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Forward 2-D DCT-II of a row-major `n × n` block.
    ///
    /// # Panics
    /// Panics when `input.len() != n * n`.
    pub fn forward(&self, input: &[f64]) -> Vec<f64> {
        assert_eq!(input.len(), self.n * self.n, "input must be n*n");
        // tmp = C * X  (transform columns of each row-block)
        let tmp = self.mul_basis_left(input);
        // out = tmp * C^T
        self.mul_basis_right_t(&tmp)
    }

    /// Inverse 2-D DCT (type III) of a row-major `n × n` coefficient
    /// block; `inverse(forward(x)) == x` up to floating-point error.
    ///
    /// # Panics
    /// Panics when `input.len() != n * n`.
    pub fn inverse(&self, input: &[f64]) -> Vec<f64> {
        assert_eq!(input.len(), self.n * self.n, "input must be n*n");
        // out = C^T * X * C
        let tmp = self.mul_basis_t_left(input);
        self.mul_basis_right(&tmp)
    }

    /// Truncated forward 2-D DCT-II: compute only the top-left
    /// `hs × hs` low-frequency block of [`Dct2d::forward`]'s output,
    /// writing into caller-provided buffers (`tmp` is the `hs × n`
    /// partial product `C · X` restricted to its first `hs` rows).
    ///
    /// Every retained coefficient is produced by the *identical* dot
    /// products in the *identical* accumulation order as the full
    /// transform — row `k` of `C · X` never reads any other row, and
    /// the right-hand multiply is an independent dot product per output
    /// cell — so the block is bit-exact against `forward` followed by a
    /// crop, at roughly `hs/n`-th of the flops. pHash only ever reads
    /// this block (8×8 of 32×32), hence the dedicated entry point.
    ///
    /// # Panics
    /// Panics when `hs > n`, `input.len() != n * n`,
    /// `tmp.len() != hs * n`, or `out.len() != hs * hs`.
    pub fn forward_topleft_into(&self, input: &[f64], hs: usize, tmp: &mut [f64], out: &mut [f64]) {
        let n = self.n;
        assert_eq!(input.len(), n * n, "input must be n*n");
        assert!(hs <= n, "block size must not exceed the transform size");
        assert_eq!(tmp.len(), hs * n, "tmp must be hs*n");
        assert_eq!(out.len(), hs * hs, "out must be hs*hs");
        // First hs rows of C * X, accumulated exactly like
        // `mul_basis_left`: same i-order per cell, same zero skip.
        for (t, c_row) in tmp.chunks_exact_mut(n).zip(self.basis.chunks_exact(n)) {
            sums_into::<true>(t, c_row, input, n);
        }
        // First hs columns of (C X) * C^T: each coefficient is the dot
        // product `mul_basis_right_t` computes, over j in the same order,
        // read from the transposed basis.
        for (t, out_row) in tmp.chunks_exact(n).zip(out.chunks_exact_mut(hs)) {
            sums_into::<false>(out_row, t, &self.basis_t, n);
        }
    }

    fn mul_basis_left(&self, x: &[f64]) -> Vec<f64> {
        // (C X)[k][j] = sum_i C[k][i] X[i][j]
        let n = self.n;
        let mut out = vec![0.0; n * n];
        for k in 0..n {
            for i in 0..n {
                let c = self.basis[k * n + i];
                if c == 0.0 {
                    continue;
                }
                for j in 0..n {
                    out[k * n + j] += c * x[i * n + j];
                }
            }
        }
        out
    }

    fn mul_basis_t_left(&self, x: &[f64]) -> Vec<f64> {
        // (C^T X)[k][j] = sum_i C[i][k] X[i][j]
        let n = self.n;
        let mut out = vec![0.0; n * n];
        for i in 0..n {
            for k in 0..n {
                let c = self.basis[i * n + k];
                if c == 0.0 {
                    continue;
                }
                for j in 0..n {
                    out[k * n + j] += c * x[i * n + j];
                }
            }
        }
        out
    }

    fn mul_basis_right_t(&self, x: &[f64]) -> Vec<f64> {
        // (X C^T)[i][k] = sum_j X[i][j] C[k][j]
        let n = self.n;
        let mut out = vec![0.0; n * n];
        for i in 0..n {
            for k in 0..n {
                let mut acc = 0.0;
                for j in 0..n {
                    acc += x[i * n + j] * self.basis[k * n + j];
                }
                out[i * n + k] = acc;
            }
        }
        out
    }

    fn mul_basis_right(&self, x: &[f64]) -> Vec<f64> {
        // (X C)[i][k] = sum_j X[i][j] C[j][k]
        let n = self.n;
        let mut out = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                let v = x[i * n + j];
                if v == 0.0 {
                    continue;
                }
                for k in 0..n {
                    out[i * n + k] += v * self.basis[j * n + k];
                }
            }
        }
        out
    }
}

/// `out[l] = Σ_i w[i] * m[i][l]` over the rows of the row-major
/// `n`-wide matrix `m`, each sum accumulated from `0.0` in `i` order.
/// With `SKIP_ZERO` a row whose weight is `0.0` adds nothing, as in
/// `mul_basis_left`; without it every row is added, as in
/// `mul_basis_right_t`. [`LANES`] sums run side by side in registers, so
/// their addition chains overlap instead of waiting on each other.
fn sums_into<const SKIP_ZERO: bool>(out: &mut [f64], w: &[f64], m: &[f64], n: usize) {
    let full = out.len() - out.len() % LANES;
    let mut blocks = out.chunks_exact_mut(LANES);
    for (b, block) in (&mut blocks).enumerate() {
        block.copy_from_slice(&column_sums::<LANES, SKIP_ZERO>(w, m, n, b * LANES));
    }
    for (j, cell) in (full..).zip(blocks.into_remainder()) {
        *cell = column_sums::<1, SKIP_ZERO>(w, m, n, j)[0];
    }
}

/// `W` of [`sums_into`]'s sums, those of columns `j0..j0 + W`.
#[inline(always)]
fn column_sums<const W: usize, const SKIP_ZERO: bool>(
    w: &[f64],
    m: &[f64],
    n: usize,
    j0: usize,
) -> [f64; W] {
    let mut acc = [0.0f64; W];
    for (&w, row) in w.iter().zip(m.chunks_exact(n)) {
        if SKIP_ZERO && w == 0.0 {
            continue;
        }
        let row = &row[j0..j0 + W];
        for l in 0..W {
            acc[l] += w * row[l];
        }
    }
    acc
}

/// One-shot forward 2-D DCT-II of a square block (plans internally;
/// prefer [`Dct2d`] in loops).
pub fn dct2_2d(input: &[f64], n: usize) -> Vec<f64> {
    Dct2d::new(n).forward(input)
}

/// One-shot inverse 2-D DCT of a square coefficient block.
pub fn idct2_2d(input: &[f64], n: usize) -> Vec<f64> {
    Dct2d::new(n).inverse(input)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_block_has_only_dc() {
        let n = 8;
        let block = vec![0.5; n * n];
        let coeffs = dct2_2d(&block, n);
        // DC coefficient of an orthonormal DCT of a constant c is c * n.
        assert!((coeffs[0] - 0.5 * n as f64).abs() < 1e-9);
        for (i, c) in coeffs.iter().enumerate().skip(1) {
            assert!(c.abs() < 1e-9, "coeff {i} = {c}");
        }
    }

    #[test]
    fn roundtrip_exact() {
        let n = 16;
        let input: Vec<f64> = (0..n * n)
            .map(|i| ((i * 31 + 7) % 97) as f64 / 97.0)
            .collect();
        let plan = Dct2d::new(n);
        let back = plan.inverse(&plan.forward(&input));
        for (a, b) in input.iter().zip(&back) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn parseval_energy_preserved() {
        // Orthonormal transform preserves the Frobenius norm.
        let n = 8;
        let input: Vec<f64> = (0..n * n).map(|i| (i as f64 * 0.7).sin()).collect();
        let coeffs = dct2_2d(&input, n);
        let e_in: f64 = input.iter().map(|x| x * x).sum();
        let e_out: f64 = coeffs.iter().map(|x| x * x).sum();
        assert!((e_in - e_out).abs() < 1e-9);
    }

    #[test]
    fn linearity() {
        let n = 8;
        let a: Vec<f64> = (0..n * n).map(|i| (i as f64 * 0.31).cos()).collect();
        let b: Vec<f64> = (0..n * n).map(|i| (i as f64 * 0.11).sin()).collect();
        let sum: Vec<f64> = a.iter().zip(&b).map(|(x, y)| 2.0 * x + 3.0 * y).collect();
        let plan = Dct2d::new(n);
        let fa = plan.forward(&a);
        let fb = plan.forward(&b);
        let fsum = plan.forward(&sum);
        for i in 0..n * n {
            assert!((fsum[i] - (2.0 * fa[i] + 3.0 * fb[i])).abs() < 1e-9);
        }
    }

    #[test]
    fn single_basis_function_concentrates() {
        // An image equal to one cosine basis function should produce a
        // single dominant coefficient.
        let n = 16;
        let (u, v) = (3usize, 5usize);
        let mut img = vec![0.0f64; n * n];
        for y in 0..n {
            for x in 0..n {
                img[y * n + x] = (std::f64::consts::PI * (2.0 * x as f64 + 1.0) * u as f64
                    / (2.0 * n as f64))
                    .cos()
                    * (std::f64::consts::PI * (2.0 * y as f64 + 1.0) * v as f64 / (2.0 * n as f64))
                        .cos();
            }
        }
        let coeffs = dct2_2d(&img, n);
        let mut best = (0usize, 0.0f64);
        for (i, c) in coeffs.iter().enumerate() {
            if c.abs() > best.1 {
                best = (i, c.abs());
            }
        }
        assert_eq!(best.0, v * n + u);
    }

    #[test]
    #[should_panic(expected = "n*n")]
    fn wrong_input_length_panics() {
        let plan = Dct2d::new(4);
        let _ = plan.forward(&[0.0; 15]);
    }

    #[test]
    fn truncated_block_is_bit_exact_vs_full_then_crop() {
        // The pHash kernel relies on this being *exact* equality, not
        // approximate: the truncated path must produce the identical
        // f64 bits as the full transform cropped to the block.
        let n = 32;
        let hs = 8;
        let plan = Dct2d::new(n);
        for seed in 0..4u64 {
            let input: Vec<f64> = (0..n * n)
                .map(|i| {
                    let x = (i as u64)
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(seed);
                    (x >> 11) as f64 / (1u64 << 53) as f64
                })
                .collect();
            let full = plan.forward(&input);
            let mut tmp = vec![0.0; hs * n];
            let mut block = vec![0.0; hs * hs];
            plan.forward_topleft_into(&input, hs, &mut tmp, &mut block);
            for y in 0..hs {
                for x in 0..hs {
                    assert_eq!(
                        block[y * hs + x].to_bits(),
                        full[y * n + x].to_bits(),
                        "coefficient ({y},{x}) diverged"
                    );
                }
            }
        }
    }

    #[test]
    fn truncated_full_size_matches_forward() {
        // hs == n degenerates to the full transform.
        let n = 8;
        let plan = Dct2d::new(n);
        let input: Vec<f64> = (0..n * n).map(|i| (i as f64 * 0.37).sin()).collect();
        let full = plan.forward(&input);
        let mut tmp = vec![0.0; n * n];
        let mut out = vec![0.0; n * n];
        plan.forward_topleft_into(&input, n, &mut tmp, &mut out);
        assert_eq!(full, out);
    }

    #[test]
    #[should_panic(expected = "hs*n")]
    fn truncated_wrong_tmp_length_panics() {
        let plan = Dct2d::new(4);
        let mut tmp = vec![0.0; 3];
        let mut out = vec![0.0; 4];
        plan.forward_topleft_into(&[0.0; 16], 2, &mut tmp, &mut out);
    }
}
