//! Gaussian-process regression with a squared-exponential kernel:
//! an exact GP supporting incremental O(n²) updates, and a low-rank
//! Nyström/DTC sparse GP for large archives ([`SparseGaussianProcess`]).
//! The SMS-EGO loop switches from the first to the second at a fixed
//! archive size (see [`crate::SmsEgoOptimizer`]).

use crate::error::GpError;
use crate::linalg::{dot, sq_dist, Matrix};
use autopilot_obs as obs;
use std::cell::RefCell;

/// The kernel exponent coefficient with the lengthscale division hoisted
/// out of the inner loops: every kernel entry is
/// `exp(sq_dist · scale)` with `scale = -0.5/ℓ²`. All kernel paths —
/// fit, extend, scalar predict, and the blocked panel — go through this
/// one formula, so they stay bit-identical to each other.
#[inline]
fn kernel_scale(lengthscale_sq: f64) -> f64 {
    -0.5 / lengthscale_sq
}

/// Tile width: a d×TILE transposed query block plus a TILE-wide output
/// row segment stays L1/L2-resident for the small d used here.
const PANEL_TILE: usize = 128;

std::thread_local! {
    /// Reusable dimension-major transposed query tile for
    /// [`correlation_panel`]; steady-state chunk scoring allocates
    /// nothing for panel scratch.
    static PANEL_TRANSPOSE: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
    /// Reusable kernel/solve vectors for the scalar predict and extend
    /// paths (`cstar` and `L⁻¹·cstar`); steady-state scalar queries
    /// allocate nothing per call.
    static VECTOR_SCRATCH: RefCell<(Vec<f64>, Vec<f64>)> =
        const { RefCell::new((Vec::new(), Vec::new())) };
}

/// Runs `f` with the thread's reusable kernel-vector scratch pair. Do
/// not call GP query methods from inside `f` — they borrow the same
/// thread-local pair.
fn with_kernel_scratch<R>(f: impl FnOnce(&mut Vec<f64>, &mut Vec<f64>) -> R) -> R {
    VECTOR_SCRATCH.with(|cell| {
        let (a, b) = &mut *cell.borrow_mut();
        f(a, b)
    })
}

/// Kernel correlation vector of one query `point` against `xs`, written
/// into a reusable buffer: element `i` is
/// `(sq_dist(&xs[i], point) * scale).exp()`.
fn kernel_vector_into(xs: &[Vec<f64>], point: &[f64], scale: f64, out: &mut Vec<f64>) {
    out.clear();
    out.extend(xs.iter().map(|xi| (sq_dist(xi, point) * scale).exp()));
}

/// Cache-blocked, fused distance+exp kernel panel: entry `(i, j)` is
/// `exp(‖rows[i] − cols[j]‖² · scale)`, bit-identical to the scalar
/// `(sq_dist(&rows[i], &cols[j]) * scale).exp()`.
///
/// The query points are transposed tile-by-tile into dimension-major
/// scratch rows, so the inner loop over a tile of queries reads both
/// operands contiguously and autovectorizes. Each entry accumulates its
/// squared distance in ascending-dimension order (as [`sq_dist`] does)
/// straight into the output row, and the exponential pass runs over
/// each finished row segment while it is still cache-resident. Tile
/// boundaries never enter an entry's arithmetic.
pub fn correlation_panel(rows: &[Vec<f64>], cols: &[Vec<f64>], scale: f64) -> Matrix {
    let n = rows.len();
    let m = cols.len();
    let mut out = Matrix::zeros(n, m);
    if n == 0 || m == 0 {
        return out;
    }
    obs::add("bo.gp.panel.calls", 1);
    obs::add("bo.gp.panel.entries", (n * m) as u64);
    let d = rows[0].len();
    PANEL_TRANSPOSE.with(|cell| {
        let transpose = &mut *cell.borrow_mut();
        for t0 in (0..m).step_by(PANEL_TILE) {
            let t1 = (t0 + PANEL_TILE).min(m);
            let w = t1 - t0;
            transpose.clear();
            transpose.resize(d * w, 0.0);
            for (k, trow) in transpose.chunks_exact_mut(w).enumerate() {
                for (slot, col) in trow.iter_mut().zip(&cols[t0..t1]) {
                    *slot = col[k];
                }
            }
            for (i, xi) in rows.iter().enumerate() {
                let orow = &mut out.row_mut(i)[t0..t1];
                for (k, &xik) in xi.iter().enumerate() {
                    let qs = &transpose[k * w..k * w + w];
                    for (acc, &q) in orow.iter_mut().zip(qs) {
                        let t = xik - q;
                        *acc += t * t;
                    }
                }
                for v in orow.iter_mut() {
                    *v = (*v * scale).exp();
                }
            }
        }
    });
    out
}

/// Shared input validation for the exact and sparse fits.
fn validate_training(x: &[Vec<f64>], y: &[f64]) -> Result<(), GpError> {
    if x.len() != y.len() {
        return Err(GpError::DimensionMismatch {
            detail: format!("{} inputs vs {} targets", x.len(), y.len()),
        });
    }
    let n = x.len();
    if n < 2 {
        return Err(GpError::TooFewPoints { got: n });
    }
    let dim = x[0].len();
    if let Some(bad) = x.iter().find(|p| p.len() != dim) {
        return Err(GpError::DimensionMismatch {
            detail: format!("input dims {} vs {}", bad.len(), dim),
        });
    }
    if x.iter().flatten().chain(y).any(|v| !v.is_finite()) {
        return Err(GpError::NonFiniteInput);
    }
    Ok(())
}

/// A fitted Gaussian process over normalized inputs in `[0, 1]^d`.
///
/// The paper uses GP surrogates with the squared-exponential (SE) kernel
/// for each objective; this implementation follows the standard
/// Rasmussen & Williams recipe (Cholesky of the kernel matrix, `alpha =
/// K^-1 y`). Hyperparameters are set by simple, robust heuristics: signal
/// variance from the sample variance, a shared isotropic lengthscale from
/// the median pairwise distance, and a small noise floor for numerical
/// stability.
///
/// # Incremental updates
///
/// The kernel matrix is held in *correlation form*: `K = σ²·C_j` where
/// `C_j` has unit diagonal plus a relative jitter. The Cholesky factor of
/// `C_j` depends only on the inputs and the lengthscale — not on the
/// targets or signal variance — so when a new observation arrives with
/// the lengthscale held fixed, [`GaussianProcess::extend`] borders the
/// factor with one triangular solve (O(n²)) instead of refactorizing
/// (O(n³)). Callers refresh the lengthscale periodically with a full
/// [`GaussianProcess::fit`]; between refits the frozen lengthscale is a
/// valid (slightly stale) hyperparameter choice, not an approximation of
/// the math: predictions from an extended GP are identical to a
/// fresh fit at the same lengthscale up to floating-point roundoff.
#[derive(Debug, Clone)]
pub struct GaussianProcess {
    x: Vec<Vec<f64>>,
    y: Vec<f64>,
    /// Cholesky factor of the jittered correlation matrix `C_j`.
    chol: Matrix,
    /// `C_j⁻¹ (y - mean_y)` — note the σ² cancellation in the posterior
    /// mean: `k*ᵀK⁻¹(y-ȳ) = c*ᵀC_j⁻¹(y-ȳ)`.
    alpha: Vec<f64>,
    mean_y: f64,
    signal_var: f64,
    lengthscale_sq: f64,
    /// Relative diagonal jitter, frozen at factorization time.
    jitter: f64,
}

impl GaussianProcess {
    /// Fits a GP to `(x, y)` observations.
    ///
    /// Inputs should be normalized to roughly the unit cube; outputs are
    /// centred internally.
    ///
    /// # Errors
    ///
    /// * [`GpError::TooFewPoints`] with fewer than two observations,
    /// * [`GpError::DimensionMismatch`] when `x` and `y` lengths differ or
    ///   input dimensions are inconsistent,
    /// * [`GpError::NotPositiveDefinite`] when the kernel matrix cannot be
    ///   factorized (singular or non-finite).
    pub fn fit(x: &[Vec<f64>], y: &[f64]) -> Result<GaussianProcess, GpError> {
        if x.len() != y.len() {
            return Err(GpError::DimensionMismatch {
                detail: format!("{} inputs vs {} targets", x.len(), y.len()),
            });
        }
        let n = x.len();
        if n < 2 {
            return Err(GpError::TooFewPoints { got: n });
        }
        // Median pairwise squared distance as the (squared) lengthscale.
        let mut dists: Vec<f64> = Vec::with_capacity(n * (n - 1) / 2);
        for i in 0..n {
            for j in (i + 1)..n {
                dists.push(sq_dist(&x[i], &x[j]));
            }
        }
        let lengthscale_sq = median_sq_dist(&mut dists);
        GaussianProcess::fit_with_lengthscale(x, y, lengthscale_sq)
    }

    /// Fits a GP at an explicitly chosen squared lengthscale, skipping the
    /// pairwise-distance heuristic. Used by incremental callers that cache
    /// distances themselves (see [`DistanceCache`]).
    ///
    /// # Errors
    ///
    /// Same taxonomy as [`GaussianProcess::fit`].
    pub fn fit_with_lengthscale(
        x: &[Vec<f64>],
        y: &[f64],
        lengthscale_sq: f64,
    ) -> Result<GaussianProcess, GpError> {
        validate_training(x, y)?;
        let n = x.len();
        let lengthscale_sq = lengthscale_sq.max(1e-6);

        let mean_y = y.iter().sum::<f64>() / n as f64;
        let centred: Vec<f64> = y.iter().map(|v| v - mean_y).collect();
        let var_y = centred.iter().map(|v| v * v).sum::<f64>() / n as f64;
        let signal_var = var_y.max(1e-12);

        // Relative jitter equivalent to the classic absolute noise term
        // `signal_var * 1e-4 + 1e-10` after dividing K by signal_var.
        let jitter = 1e-4 + 1e-10 / signal_var;
        let mut c = correlation_panel(x, x, kernel_scale(lengthscale_sq));
        for i in 0..n {
            c[(i, i)] += jitter;
        }
        let chol = c.cholesky().ok_or(GpError::NotPositiveDefinite)?;
        let mut gp = GaussianProcess {
            x: x.to_vec(),
            y: y.to_vec(),
            chol,
            alpha: Vec::new(),
            mean_y,
            signal_var,
            lengthscale_sq,
            jitter,
        };
        gp.refresh_targets();
        Ok(gp)
    }

    /// Appends one observation in O(n²) by bordering the existing
    /// Cholesky factor, keeping the current lengthscale frozen.
    ///
    /// Returns `false` — leaving the GP unchanged — when the extension is
    /// numerically unsafe (the bordered matrix loses positive
    /// definiteness, e.g. for a near-duplicate input); the caller should
    /// fall back to a full [`GaussianProcess::fit`].
    ///
    /// # Panics
    ///
    /// Panics if `x_new` has the wrong dimension.
    pub fn extend(&mut self, x_new: &[f64], y_new: f64) -> bool {
        assert_eq!(x_new.len(), self.x[0].len(), "dimension mismatch");
        let scale = kernel_scale(self.lengthscale_sq);
        let ok = with_kernel_scratch(|c, w| {
            kernel_vector_into(&self.x, x_new, scale, c);
            self.chol.solve_lower_into(c, w);
            let d2 = 1.0 + self.jitter - w.iter().map(|v| v * v).sum::<f64>();
            // Guard well above zero: a tiny pivot makes the factor
            // ill-conditioned even when it technically exists.
            if !d2.is_finite() || d2 <= 1e-10 {
                return false;
            }
            self.chol.extend_lower(w, d2.sqrt());
            true
        });
        if !ok {
            return false;
        }
        self.x.push(x_new.to_vec());
        self.y.push(y_new);
        self.refresh_targets();
        true
    }

    /// Replaces every training target in place, reusing the existing
    /// Cholesky factorization — O(n²) instead of the O(n³) refit.
    ///
    /// The factor depends only on the inputs and the lengthscale, so a
    /// wholesale target change (the BO loop renormalizes all targets
    /// when the archive's objective ranges move) only needs the
    /// target-dependent state recomputed. The relative jitter stays
    /// frozen at its factorization-time value, exactly as it does across
    /// [`GaussianProcess::extend`] calls.
    ///
    /// Returns `false` — leaving the GP unchanged — when `y` has the
    /// wrong length or contains non-finite values.
    pub fn retarget(&mut self, y: &[f64]) -> bool {
        if y.len() != self.y.len() || y.iter().any(|v| !v.is_finite()) {
            return false;
        }
        self.y.clear();
        self.y.extend_from_slice(y);
        self.refresh_targets();
        true
    }

    /// Recomputes the target-dependent state (mean, signal variance,
    /// `alpha`) against the current factorization — O(n²).
    fn refresh_targets(&mut self) {
        let n = self.y.len();
        self.mean_y = self.y.iter().sum::<f64>() / n as f64;
        let centred: Vec<f64> = self.y.iter().map(|v| v - self.mean_y).collect();
        self.signal_var = (centred.iter().map(|v| v * v).sum::<f64>() / n as f64).max(1e-12);
        let tmp = self.chol.solve_lower(&centred);
        self.alpha = self.chol.solve_lower_transpose(&tmp);
    }

    /// Number of training points.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// True when the GP has no training points (never constructed this
    /// way, but part of the `len`/`is_empty` contract).
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// The squared lengthscale currently in effect (frozen between fits).
    pub fn lengthscale_sq(&self) -> f64 {
        self.lengthscale_sq
    }

    /// Posterior mean and variance at `point`.
    ///
    /// # Panics
    ///
    /// Panics if `point` has the wrong dimension.
    pub fn predict(&self, point: &[f64]) -> (f64, f64) {
        assert_eq!(point.len(), self.x[0].len(), "dimension mismatch");
        let scale = kernel_scale(self.lengthscale_sq);
        with_kernel_scratch(|cstar, v| {
            kernel_vector_into(&self.x, point, scale, cstar);
            let mean = self.mean_y + dot(cstar, &self.alpha);
            self.chol.solve_lower_into(cstar, v);
            let var = (self.signal_var * (1.0 - v.iter().map(|x| x * x).sum::<f64>())).max(0.0);
            (mean, var)
        })
    }

    /// Lower confidence bound `mean - beta * std` at `point`.
    pub fn lcb(&self, point: &[f64], beta: f64) -> f64 {
        let (m, v) = self.predict(point);
        m - beta * v.sqrt()
    }

    /// Kernel cross-correlation matrix between the training inputs and a
    /// batch of query points: entry `(i, j)` is
    /// `exp(-0.5·‖x_i − p_j‖²/ℓ²)`, i.e. bit-identical to `cstar[i]` as
    /// computed inside [`GaussianProcess::predict`] for query `j`.
    ///
    /// The matrix depends only on the training inputs and the
    /// lengthscale, so GPs that share both (the SMS-EGO per-objective
    /// surrogate pack trains every objective on the same encoded points
    /// at one shared lengthscale) can compute it once and reuse it via
    /// [`GaussianProcess::predict_batch_from_correlations`] — one
    /// `exp`-matrix for all objectives instead of one per objective.
    ///
    /// # Panics
    ///
    /// Panics if any query point has the wrong dimension.
    pub fn cross_correlations(&self, points: &[Vec<f64>]) -> Matrix {
        let dim = self.x[0].len();
        for p in points {
            assert_eq!(p.len(), dim, "dimension mismatch");
        }
        correlation_panel(&self.x, points, kernel_scale(self.lengthscale_sq))
    }

    /// Batched posterior `(mean, variance)` from a precomputed
    /// cross-correlation matrix (`n` training rows × `m` query columns),
    /// as produced by [`GaussianProcess::cross_correlations`] — by this
    /// GP, or by another GP with identical training inputs and
    /// lengthscale.
    ///
    /// Output `j` is bit-identical to `predict(p_j)`: means accumulate
    /// `corr[i][j]·alpha[i]` in ascending `i` (the same operation order
    /// as the scalar `dot`), variances come from the blocked multi-column
    /// triangular solve whose columns are bit-identical to per-column
    /// [`Matrix::solve_lower`], with the sum of squares likewise
    /// accumulated in ascending `i`. The speedup is purely structural:
    /// the Cholesky factor and `alpha` stream through the cache once per
    /// column block instead of once per candidate.
    ///
    /// # Panics
    ///
    /// Panics if `corr.rows()` differs from the training-set size.
    pub fn predict_batch_from_correlations(&self, corr: &Matrix) -> Vec<(f64, f64)> {
        let n = self.x.len();
        assert_eq!(corr.rows(), n, "correlation matrix has wrong row count");
        let m = corr.cols();
        // Means: every column's dot product with alpha, accumulated in
        // ascending row order so each partial sum matches the scalar
        // `dot(cstar, alpha)` bit-for-bit.
        let mut means = vec![0.0f64; m];
        for i in 0..n {
            let a = self.alpha[i];
            for (mean, &c) in means.iter_mut().zip(corr.row(i)) {
                *mean += c * a;
            }
        }
        // Variances: v = L⁻¹·corr column-wise, then per-column Σv².
        let v = self.chol.solve_lower_columns(corr);
        let mut sumsq = vec![0.0f64; m];
        for i in 0..n {
            for (s, &w) in sumsq.iter_mut().zip(v.row(i)) {
                *s += w * w;
            }
        }
        means
            .into_iter()
            .zip(sumsq)
            .map(|(acc, s)| (self.mean_y + acc, (self.signal_var * (1.0 - s)).max(0.0)))
            .collect()
    }

    /// Batched posterior mean and variance for a pool of query points —
    /// output `j` is bit-identical to `predict(&points[j])`.
    ///
    /// # Panics
    ///
    /// Panics if any query point has the wrong dimension.
    pub fn predict_batch(&self, points: &[Vec<f64>]) -> Vec<(f64, f64)> {
        self.predict_batch_from_correlations(&self.cross_correlations(points))
    }
}

/// Ridge added to the inducing correlation matrix `C_mm` before
/// factorization — far below the observation noise, just enough to keep
/// near-duplicate inducing points factorizable.
const INDUCING_RIDGE: f64 = 1e-8;

/// A low-rank sparse Gaussian process (Nyström / inducing-point, the DTC
/// approximation of Quiñonero-Candela & Rasmussen 2005) over normalized
/// inputs, held in the same correlation form as [`GaussianProcess`].
///
/// With `m` inducing points `Z` chosen deterministically from the `n`
/// training inputs (greedy farthest-point, see
/// [`SparseGaussianProcess::fit_with_lengthscale`]), the training
/// correlations `C_nm` enter only through the `m×m` system
/// `A = C_mm + λ⁻¹·C_nmᵀC_nm` (λ is the relative noise, playing the
/// exact GP's jitter role). Predictions then cost O(m) dot products and
/// two O(m²) triangular solves per query:
///
/// * mean: `ȳ + k_xᵀ·w` with `w = λ⁻¹·A⁻¹·C_nmᵀ(y − ȳ)`,
/// * variance: `σ²·(1 − ‖L_mm⁻¹k_x‖² + ‖L_A⁻¹k_x‖²)`, clamped at zero,
///
/// where `k_x` is the query's correlation vector against `Z`. Fitting is
/// O(n·m²), appending one observation is O(m²) (a rank-1 Cholesky
/// update of `L_A` plus an O(n·m) weight refresh), and a wholesale
/// target change ([`SparseGaussianProcess::retarget`]) is O(n·m). With
/// `Z` equal to the full training set the approximation is exact: DTC
/// then reproduces the exact GP's noisy posterior identically (up to the
/// tiny `C_mm` ridge), which is the accuracy contract the property tests
/// pin down.
///
/// The variance depends on the target through the relative noise λ
/// (scaled by each objective's signal variance) and through `L_A`, so a
/// per-objective surrogate pack cannot share one variance computation
/// across objectives. What the pack *does* share is the candidate
/// correlation panel against `Z`: the panel depends only on the
/// inducing set and the lengthscale — both frozen between full refits — so the acquisition loop builds it once per
/// candidate pool and feeds every objective's
/// [`SparseGaussianProcess::predict_batch_from_correlations`] from it.
#[derive(Debug, Clone)]
pub struct SparseGaussianProcess {
    /// Inducing inputs `Z` (clones of selected training points).
    inducing: Vec<Vec<f64>>,
    /// Training-to-inducing correlations `C_nm` (kept for retargeting).
    cnm: Matrix,
    y: Vec<f64>,
    /// Cholesky factor of `C_mm + INDUCING_RIDGE·I`.
    l_mm: Matrix,
    /// Cholesky factor of `A = C_mm + ridge·I + λ⁻¹·C_nmᵀC_nm`.
    l_a: Matrix,
    /// Posterior mean weights `λ⁻¹·A⁻¹·C_nmᵀ(y − ȳ)`.
    w: Vec<f64>,
    /// Cholesky factor `L_D` of the PSD variance form
    /// `D = C_mm⁻¹ − A⁻¹` (plus [`INDUCING_RIDGE`]·I), so the posterior
    /// variance is `σ²(1 − ‖L_Dᵀc‖²)` — one dependency-free triangular
    /// product per query instead of two triangular solves. `None` when
    /// `D` is too close to singular to factor; predictions then fall
    /// back to the solve-based form.
    var_form_l: Option<Matrix>,
    mean_y: f64,
    signal_var: f64,
    lengthscale_sq: f64,
    /// Relative observation noise λ, frozen at factorization time.
    noise: f64,
}

impl SparseGaussianProcess {
    /// Fits a sparse GP with at most `inducing` inducing points, using
    /// the same median-pairwise-distance lengthscale heuristic as
    /// [`GaussianProcess::fit`].
    ///
    /// # Errors
    ///
    /// Same taxonomy as [`GaussianProcess::fit`].
    pub fn fit(
        x: &[Vec<f64>],
        y: &[f64],
        inducing: usize,
    ) -> Result<SparseGaussianProcess, GpError> {
        validate_training(x, y)?;
        let n = x.len();
        let mut dists: Vec<f64> = Vec::with_capacity(n * (n - 1) / 2);
        for i in 0..n {
            for j in (i + 1)..n {
                dists.push(sq_dist(&x[i], &x[j]));
            }
        }
        let lengthscale_sq = median_sq_dist(&mut dists);
        SparseGaussianProcess::fit_with_lengthscale(x, y, lengthscale_sq, inducing)
    }

    /// Fits a sparse GP at an explicitly chosen squared lengthscale.
    ///
    /// Inducing points are selected deterministically from the training
    /// inputs by greedy farthest-point traversal: start from index 0,
    /// repeatedly take the point with the largest squared distance to
    /// the chosen set (first maximum wins on ties), and stop early when
    /// every remaining point duplicates a chosen one. The selection
    /// depends only on the training inputs, so refits over the same
    /// archive are reproducible bit-for-bit.
    ///
    /// # Errors
    ///
    /// Same taxonomy as [`GaussianProcess::fit`].
    pub fn fit_with_lengthscale(
        x: &[Vec<f64>],
        y: &[f64],
        lengthscale_sq: f64,
        inducing: usize,
    ) -> Result<SparseGaussianProcess, GpError> {
        validate_training(x, y)?;
        let n = x.len();
        let lengthscale_sq = lengthscale_sq.max(1e-6);
        let scale = kernel_scale(lengthscale_sq);

        let mean_y = y.iter().sum::<f64>() / n as f64;
        let centred: Vec<f64> = y.iter().map(|v| v - mean_y).collect();
        let signal_var = (centred.iter().map(|v| v * v).sum::<f64>() / n as f64).max(1e-12);
        let noise = 1e-4 + 1e-10 / signal_var;

        let inducing = select_inducing(x, inducing.clamp(2, n));
        let m = inducing.len();
        let cnm = correlation_panel(x, &inducing, scale);
        let mut cmm = correlation_panel(&inducing, &inducing, scale);
        for i in 0..m {
            cmm[(i, i)] += INDUCING_RIDGE;
        }
        let l_mm = cmm.cholesky().ok_or(GpError::NotPositiveDefinite)?;
        let b = cnm.gram();
        let a = Matrix::from_fn(m, m, |i, j| cmm[(i, j)] + b[(i, j)] / noise);
        let l_a = a.cholesky().ok_or(GpError::NotPositiveDefinite)?;
        let var_form_l = variance_form(&l_mm, &l_a);

        let mut gp = SparseGaussianProcess {
            inducing,
            cnm,
            y: y.to_vec(),
            l_mm,
            l_a,
            w: Vec::new(),
            var_form_l,
            mean_y,
            signal_var,
            lengthscale_sq,
            noise,
        };
        gp.refresh_targets();
        Ok(gp)
    }

    /// Recomputes the target-dependent state (mean, signal variance, and
    /// the posterior weights `w`) against the current factorizations —
    /// O(n·m + m²). The noise stays frozen, mirroring the exact GP's
    /// frozen jitter.
    fn refresh_targets(&mut self) {
        let n = self.y.len();
        self.mean_y = self.y.iter().sum::<f64>() / n as f64;
        let centred: Vec<f64> = self.y.iter().map(|v| v - self.mean_y).collect();
        self.signal_var = (centred.iter().map(|v| v * v).sum::<f64>() / n as f64).max(1e-12);
        let t = self.cnm.transpose_mul_vec(&centred);
        let u = self.l_a.solve_lower(&t);
        let v = self.l_a.solve_lower_transpose(&u);
        self.w = v.into_iter().map(|wi| wi / self.noise).collect();
    }

    /// Number of training points.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// True when the GP has no training points (never constructed this
    /// way, but part of the `len`/`is_empty` contract).
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    /// Number of inducing points actually in use.
    pub fn inducing_count(&self) -> usize {
        self.inducing.len()
    }

    /// The squared lengthscale currently in effect (frozen between fits).
    pub fn lengthscale_sq(&self) -> f64 {
        self.lengthscale_sq
    }

    /// Posterior mean and variance at `point`.
    ///
    /// # Panics
    ///
    /// Panics if `point` has the wrong dimension.
    pub fn predict(&self, point: &[f64]) -> (f64, f64) {
        assert_eq!(point.len(), self.inducing[0].len(), "dimension mismatch");
        let scale = kernel_scale(self.lengthscale_sq);
        with_kernel_scratch(|k, q| {
            kernel_vector_into(&self.inducing, point, scale, k);
            let mean = self.mean_y + dot(k, &self.w);
            let var = match &self.var_form_l {
                Some(ld) => {
                    // Same accumulation order as the batched path: for each
                    // output row i, sum L_D[k][i]·c[k] over ascending k ≥ i,
                    // then square-sum over ascending i — bit-identical to
                    // `variances_from_correlations` column j.
                    let m = k.len();
                    let mut quad = 0.0;
                    for i in 0..m {
                        let mut t = 0.0;
                        for (kk, ck) in k.iter().enumerate().skip(i) {
                            t += ld[(kk, i)] * ck;
                        }
                        quad += t * t;
                    }
                    (self.signal_var * (1.0 - quad)).max(0.0)
                }
                None => {
                    // Rare fallback when the variance form failed to
                    // factor; one of the two solves still allocates.
                    self.l_mm.solve_lower_into(k, q);
                    let s = self.l_a.solve_lower(k);
                    (self.signal_var
                        * (1.0 - q.iter().map(|v| v * v).sum::<f64>()
                            + s.iter().map(|v| v * v).sum::<f64>()))
                    .max(0.0)
                }
            };
            (mean, var)
        })
    }

    /// Lower confidence bound `mean - beta * std` at `point`.
    pub fn lcb(&self, point: &[f64], beta: f64) -> f64 {
        let (m, v) = self.predict(point);
        m - beta * v.sqrt()
    }

    /// Kernel correlation matrix between the *inducing* inputs and a
    /// batch of query points (`m` inducing rows × query columns) — the
    /// sparse analogue of [`GaussianProcess::cross_correlations`].
    /// Shareable across a surrogate pack with identical inducing sets
    /// and lengthscale.
    ///
    /// # Panics
    ///
    /// Panics if any query point has the wrong dimension.
    pub fn cross_correlations(&self, points: &[Vec<f64>]) -> Matrix {
        let dim = self.inducing[0].len();
        for p in points {
            assert_eq!(p.len(), dim, "dimension mismatch");
        }
        correlation_panel(&self.inducing, points, kernel_scale(self.lengthscale_sq))
    }

    /// Batched posterior means from a precomputed inducing-correlation
    /// matrix; output `j` is bit-identical to `predict(p_j).0`.
    ///
    /// # Panics
    ///
    /// Panics if `corr.rows()` differs from the inducing count.
    pub fn means_from_correlations(&self, corr: &Matrix) -> Vec<f64> {
        let m = self.inducing.len();
        assert_eq!(corr.rows(), m, "correlation matrix has wrong row count");
        let cols = corr.cols();
        let mut means = vec![0.0f64; cols];
        for i in 0..m {
            let wi = self.w[i];
            for (mean, &c) in means.iter_mut().zip(corr.row(i)) {
                *mean += c * wi;
            }
        }
        for mean in &mut means {
            *mean += self.mean_y;
        }
        means
    }

    /// Batched posterior variances from a precomputed
    /// inducing-correlation matrix; output `j` is bit-identical to
    /// `predict(p_j).1`. The result is target-independent, so one call
    /// serves every objective GP in a pack sharing inducing inputs and
    /// lengthscale.
    ///
    /// # Panics
    ///
    /// Panics if `corr.rows()` differs from the inducing count.
    pub fn variances_from_correlations(&self, corr: &Matrix) -> Vec<f64> {
        let m = self.inducing.len();
        assert_eq!(corr.rows(), m, "correlation matrix has wrong row count");
        let cols = corr.cols();
        if let Some(ld) = &self.var_form_l {
            // One fused triangular product against the precomputed PSD
            // form instead of two triangular solves — half the flops, no
            // sequential dependency between rows, and no intermediate
            // `m×cols` matrix (the quadratic form is squared into the
            // output as each product row is produced).
            let quad = ld.transpose_mul_sumsq_columns(corr);
            return quad.into_iter().map(|qv| (self.signal_var * (1.0 - qv)).max(0.0)).collect();
        }
        let q = self.l_mm.solve_lower_columns(corr);
        let s = self.l_a.solve_lower_columns(corr);
        let mut qss = vec![0.0f64; cols];
        let mut sss = vec![0.0f64; cols];
        for i in 0..m {
            for (acc, &v) in qss.iter_mut().zip(q.row(i)) {
                *acc += v * v;
            }
            for (acc, &v) in sss.iter_mut().zip(s.row(i)) {
                *acc += v * v;
            }
        }
        qss.into_iter()
            .zip(sss)
            .map(|(qv, sv)| (self.signal_var * (1.0 - qv + sv)).max(0.0))
            .collect()
    }

    /// Batched posterior `(mean, variance)` from a precomputed
    /// inducing-correlation matrix.
    ///
    /// # Panics
    ///
    /// Panics if `corr.rows()` differs from the inducing count.
    pub fn predict_batch_from_correlations(&self, corr: &Matrix) -> Vec<(f64, f64)> {
        self.means_from_correlations(corr)
            .into_iter()
            .zip(self.variances_from_correlations(corr))
            .collect()
    }

    /// Batched posterior mean and variance for a pool of query points —
    /// output `j` is bit-identical to `predict(&points[j])`.
    ///
    /// # Panics
    ///
    /// Panics if any query point has the wrong dimension.
    pub fn predict_batch(&self, points: &[Vec<f64>]) -> Vec<(f64, f64)> {
        self.predict_batch_from_correlations(&self.cross_correlations(points))
    }

    /// Appends one observation in O(m²) + O(n·m): the new point's
    /// inducing correlations `c` enter `A` as the rank-1 term
    /// `λ⁻¹·c·cᵀ` (an *additive* Cholesky update of `L_A`, so positive
    /// definiteness is preserved unconditionally), and the posterior
    /// weights are refreshed against the stored `C_nm`. The inducing
    /// set, lengthscale, and noise stay frozen until the next milestone
    /// refit.
    ///
    /// Returns `false` — leaving the GP unchanged — on non-finite input
    /// or a numerically degenerate update.
    ///
    /// # Panics
    ///
    /// Panics if `x_new` has the wrong dimension.
    pub fn extend(&mut self, x_new: &[f64], y_new: f64) -> bool {
        assert_eq!(x_new.len(), self.inducing[0].len(), "dimension mismatch");
        if !y_new.is_finite() || x_new.iter().any(|v| !v.is_finite()) {
            return false;
        }
        let scale = kernel_scale(self.lengthscale_sq);
        let inv_sqrt_noise = 1.0 / self.noise.sqrt();
        let ok = with_kernel_scratch(|c, v| {
            kernel_vector_into(&self.inducing, x_new, scale, c);
            v.clear();
            v.extend(c.iter().map(|ci| ci * inv_sqrt_noise));
            if !self.l_a.rank1_update_lower(v) {
                return false;
            }
            self.cnm.push_row(c);
            true
        });
        if !ok {
            return false;
        }
        self.y.push(y_new);
        self.var_form_l = variance_form(&self.l_mm, &self.l_a);
        self.refresh_targets();
        true
    }

    /// Replaces every training target in place, reusing both
    /// factorizations — O(n·m) instead of the O(n·m²) refit. The sparse
    /// analogue of [`GaussianProcess::retarget`].
    ///
    /// Returns `false` — leaving the GP unchanged — when `y` has the
    /// wrong length or contains non-finite values.
    pub fn retarget(&mut self, y: &[f64]) -> bool {
        if y.len() != self.y.len() || y.iter().any(|v| !v.is_finite()) {
            return false;
        }
        self.y.clear();
        self.y.extend_from_slice(y);
        self.refresh_targets();
        true
    }
}

/// Cholesky factor of the sparse posterior's variance form
/// `D = C_mm⁻¹ − A⁻¹` (ridged by [`INDUCING_RIDGE`]). `A ⪰ C_mm` makes
/// `D` PSD, so the factorization exists up to roundoff; `None` signals
/// the caller to fall back to the solve-based variance. O(m³) — paid
/// once per fit/extend, amortized over every subsequent batched query.
fn variance_form(l_mm: &Matrix, l_a: &Matrix) -> Option<Matrix> {
    let m = l_mm.rows();
    // C_mm⁻¹ = XᵀX and A⁻¹ = YᵀY for X = L_mm⁻¹, Y = L_A⁻¹.
    let gx = l_mm.invert_lower().gram();
    let gy = l_a.invert_lower().gram();
    let d = Matrix::from_fn(m, m, |i, j| {
        gx[(i, j)] - gy[(i, j)] + if i == j { INDUCING_RIDGE } else { 0.0 }
    });
    d.cholesky()
}

/// Greedy farthest-point inducing selection: deterministic, O(n·m·d),
/// first maximum wins on ties, stops early when every remaining point
/// duplicates a chosen one.
fn select_inducing(x: &[Vec<f64>], m: usize) -> Vec<Vec<f64>> {
    let mut chosen: Vec<usize> = Vec::with_capacity(m);
    chosen.push(0);
    let mut min_d: Vec<f64> = x.iter().map(|p| sq_dist(p, &x[0])).collect();
    while chosen.len() < m {
        let mut best = 0usize;
        let mut best_d = -1.0f64;
        for (i, &dv) in min_d.iter().enumerate() {
            if dv > best_d {
                best_d = dv;
                best = i;
            }
        }
        if best_d <= 0.0 {
            break;
        }
        chosen.push(best);
        for (i, dv) in min_d.iter_mut().enumerate() {
            let d = sq_dist(&x[i], &x[best]);
            if d < *dv {
                *dv = d;
            }
        }
    }
    chosen.into_iter().map(|i| x[i].clone()).collect()
}

/// Median of a scratch list of squared distances (via selection, O(m));
/// matches the sorted-middle convention with a floor of `1e-6`.
fn median_sq_dist(dists: &mut [f64]) -> f64 {
    if dists.is_empty() {
        return 1.0;
    }
    let mid = dists.len() / 2;
    let (_, m, _) = dists.select_nth_unstable_by(mid, |a, b| a.total_cmp(b));
    (*m).max(1e-6)
}

/// Incrementally maintained pairwise squared distances for the median
/// lengthscale heuristic.
///
/// Appending the `n`-th point costs O(n·d) instead of rebuilding all
/// O(n²) pairs, so a Bayesian-optimization loop can keep the heuristic
/// current without quadratic rescans per iteration.
#[derive(Debug, Clone, Default)]
pub struct DistanceCache {
    points: Vec<Vec<f64>>,
    dists: Vec<f64>,
}

impl DistanceCache {
    /// Creates an empty cache.
    pub fn new() -> DistanceCache {
        DistanceCache::default()
    }

    /// Appends a point, recording its distance to every existing point.
    pub fn push(&mut self, p: Vec<f64>) {
        for q in &self.points {
            self.dists.push(sq_dist(q, &p));
        }
        self.points.push(p);
    }

    /// Number of points recorded.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when no point has been recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Drops all recorded points and distances.
    pub fn clear(&mut self) {
        self.points.clear();
        self.dists.clear();
    }

    /// Median pairwise squared distance (1.0 when fewer than two points),
    /// floored at `1e-6` — the GP's squared-lengthscale heuristic.
    pub fn median_sq_dist(&self) -> f64 {
        let mut scratch = self.dists.clone();
        median_sq_dist(&mut scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid1d(n: usize) -> Vec<Vec<f64>> {
        (0..n).map(|i| vec![i as f64 / (n - 1) as f64]).collect()
    }

    #[test]
    fn interpolates_training_points() {
        let x = grid1d(8);
        let y: Vec<f64> = x.iter().map(|p| (4.0 * p[0]).sin()).collect();
        let gp = GaussianProcess::fit(&x, &y).unwrap();
        for (xi, yi) in x.iter().zip(&y) {
            let (m, v) = gp.predict(xi);
            assert!((m - yi).abs() < 1e-2, "mean {m} vs {yi}");
            assert!(v < 1e-2, "variance {v} at training point");
        }
    }

    #[test]
    fn uncertainty_grows_away_from_data() {
        let x = vec![vec![0.0], vec![0.1], vec![0.2]];
        let y = vec![0.0, 0.1, 0.2];
        let gp = GaussianProcess::fit(&x, &y).unwrap();
        let (_, v_near) = gp.predict(&[0.1]);
        let (_, v_far) = gp.predict(&[5.0]);
        assert!(v_far > v_near);
    }

    #[test]
    fn prediction_reasonable_between_points() {
        let x = grid1d(16);
        let y: Vec<f64> = x.iter().map(|p| p[0] * p[0]).collect();
        let gp = GaussianProcess::fit(&x, &y).unwrap();
        let (m, _) = gp.predict(&[0.5]);
        assert!((m - 0.25).abs() < 0.05, "mean {m}");
    }

    #[test]
    fn too_few_points_is_an_error() {
        assert!(matches!(
            GaussianProcess::fit(&[vec![0.0]], &[1.0]),
            Err(GpError::TooFewPoints { got: 1 })
        ));
        assert!(matches!(GaussianProcess::fit(&[], &[]), Err(GpError::TooFewPoints { got: 0 })));
    }

    #[test]
    fn mismatched_lengths_are_an_error() {
        let r = GaussianProcess::fit(&[vec![0.0], vec![1.0]], &[1.0]);
        assert!(matches!(r, Err(GpError::DimensionMismatch { .. })));
        let r =
            GaussianProcess::fit_with_lengthscale(&[vec![0.0], vec![1.0, 2.0]], &[1.0, 2.0], 0.5);
        assert!(matches!(r, Err(GpError::DimensionMismatch { .. })));
    }

    #[test]
    fn non_finite_training_data_is_an_error() {
        let x = vec![vec![0.0], vec![0.5], vec![1.0]];
        let y = vec![0.0, f64::NAN, 1.0];
        assert!(matches!(GaussianProcess::fit(&x, &y), Err(GpError::NonFiniteInput)));
        let x = vec![vec![0.0], vec![f64::INFINITY]];
        assert!(matches!(GaussianProcess::fit(&x, &[0.0, 1.0]), Err(GpError::NonFiniteInput)));
    }

    #[test]
    fn lcb_below_mean() {
        let x = grid1d(6);
        let y: Vec<f64> = x.iter().map(|p| p[0]).collect();
        let gp = GaussianProcess::fit(&x, &y).unwrap();
        let (m, _) = gp.predict(&[0.55]);
        assert!(gp.lcb(&[0.55], 2.0) <= m);
    }

    #[test]
    fn constant_targets_are_handled() {
        let x = grid1d(5);
        let y = vec![3.0; 5];
        let gp = GaussianProcess::fit(&x, &y).unwrap();
        let (m, _) = gp.predict(&[0.5]);
        assert!((m - 3.0).abs() < 1e-6);
    }

    #[test]
    fn len_reports_training_size() {
        let x = grid1d(5);
        let y = vec![0.0; 5];
        let gp = GaussianProcess::fit(&x, &y).unwrap();
        assert_eq!(gp.len(), 5);
        assert!(!gp.is_empty());
    }

    #[test]
    fn extend_matches_full_refit_at_same_lengthscale() {
        let x = grid1d(10);
        let y: Vec<f64> = x.iter().map(|p| (3.0 * p[0]).cos() + 0.5 * p[0]).collect();
        // Fit on the first 6 points, extend with the remaining 4.
        let mut inc = GaussianProcess::fit(&x[..6], &y[..6]).unwrap();
        let ls = inc.lengthscale_sq();
        for i in 6..10 {
            assert!(inc.extend(&x[i], y[i]), "extension failed at {i}");
        }
        let full = GaussianProcess::fit_with_lengthscale(&x, &y, ls).unwrap();
        for q in [0.05, 0.33, 0.61, 0.97] {
            let (mi, vi) = inc.predict(&[q]);
            let (mf, vf) = full.predict(&[q]);
            assert!((mi - mf).abs() < 1e-8, "mean {mi} vs {mf} at {q}");
            assert!((vi - vf).abs() < 1e-8, "var {vi} vs {vf} at {q}");
        }
        assert_eq!(inc.len(), 10);
    }

    #[test]
    fn extend_rejects_near_duplicate_without_corruption() {
        let x = vec![vec![0.0], vec![0.5], vec![1.0]];
        let y = vec![0.0, 1.0, 0.0];
        let mut gp = GaussianProcess::fit(&x, &y).unwrap();
        let before = gp.predict(&[0.25]);
        // A near-exact duplicate may be rejected; the GP must be unchanged
        // in that case.
        if !gp.extend(&[0.5 + 1e-15], 1.0) {
            let after = gp.predict(&[0.25]);
            assert_eq!(before, after);
            assert_eq!(gp.len(), 3);
        }
    }

    #[test]
    fn predict_batch_matches_scalar_predict_bitwise() {
        let x: Vec<Vec<f64>> =
            (0..9).map(|i| vec![i as f64 / 8.0, (i * i % 5) as f64 / 4.0]).collect();
        let y: Vec<f64> = x.iter().map(|p| (3.0 * p[0]).sin() + p[1] * p[1]).collect();
        let gp = GaussianProcess::fit(&x, &y).unwrap();
        // Pool larger than the solve's column block, including exact
        // training points (variance clamp at 0) and far-away queries.
        let pool: Vec<Vec<f64>> = (0..40)
            .map(|j| vec![(j as f64 * 0.37) % 1.3, (j as f64 * 0.51) % 1.1 - 0.2])
            .chain(x.iter().cloned())
            .collect();
        let batch = gp.predict_batch(&pool);
        assert_eq!(batch.len(), pool.len());
        for (p, (bm, bv)) in pool.iter().zip(&batch) {
            let (m, v) = gp.predict(p);
            assert_eq!(bm.to_bits(), m.to_bits(), "mean at {p:?}");
            assert_eq!(bv.to_bits(), v.to_bits(), "variance at {p:?}");
        }
    }

    #[test]
    fn shared_correlations_valid_across_gps_with_same_inputs() {
        // Two GPs on the same inputs and lengthscale but different
        // targets — the surrogate-pack invariant. One cross-correlation
        // matrix must serve both, bit-identically to their own.
        let x = grid1d(7);
        let y1: Vec<f64> = x.iter().map(|p| p[0] * p[0]).collect();
        let y2: Vec<f64> = x.iter().map(|p| (5.0 * p[0]).cos()).collect();
        let a = GaussianProcess::fit(&x, &y1).unwrap();
        let b = GaussianProcess::fit_with_lengthscale(&x, &y2, a.lengthscale_sq()).unwrap();
        let pool: Vec<Vec<f64>> = (0..11).map(|j| vec![j as f64 * 0.09 - 0.05]).collect();
        let corr = a.cross_correlations(&pool);
        let via_shared = b.predict_batch_from_correlations(&corr);
        for (p, got) in pool.iter().zip(&via_shared) {
            let direct = b.predict(p);
            assert_eq!(got.0.to_bits(), direct.0.to_bits());
            assert_eq!(got.1.to_bits(), direct.1.to_bits());
        }
    }

    #[test]
    fn predict_batch_empty_pool_is_empty() {
        let x = grid1d(4);
        let y = vec![0.0, 1.0, 0.5, 0.25];
        let gp = GaussianProcess::fit(&x, &y).unwrap();
        assert!(gp.predict_batch(&[]).is_empty());
    }

    #[test]
    fn distance_cache_matches_direct_median() {
        let pts: Vec<Vec<f64>> =
            (0..9).map(|i| vec![(i * i % 7) as f64 * 0.13, i as f64 * 0.1]).collect();
        let mut cache = DistanceCache::new();
        for p in &pts {
            cache.push(p.clone());
        }
        assert_eq!(cache.len(), 9);
        // Direct computation, seed convention: sort all pairs, take mid.
        let mut dists = Vec::new();
        for i in 0..pts.len() {
            for j in (i + 1)..pts.len() {
                dists.push(sq_dist(&pts[i], &pts[j]));
            }
        }
        dists.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let expect = dists[dists.len() / 2].max(1e-6);
        assert_eq!(cache.median_sq_dist(), expect);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.median_sq_dist(), 1.0);
    }

    #[test]
    fn fit_uses_median_heuristic() {
        let x = grid1d(7);
        let y: Vec<f64> = x.iter().map(|p| p[0]).collect();
        let gp = GaussianProcess::fit(&x, &y).unwrap();
        let mut cache = DistanceCache::new();
        for p in &x {
            cache.push(p.clone());
        }
        assert_eq!(gp.lengthscale_sq(), cache.median_sq_dist());
    }

    #[test]
    fn sparse_with_all_inducing_matches_exact() {
        // DTC with the inducing set equal to the full training set is the
        // exact noisy GP posterior, up to the tiny C_mm ridge. This is the
        // strongest accuracy anchor the sparse path has.
        let x: Vec<Vec<f64>> =
            (0..24).map(|i| vec![(i * 7 % 24) as f64 / 23.0, (i * 5 % 24) as f64 / 23.0]).collect();
        let y: Vec<f64> = x.iter().map(|p| (4.0 * p[0]).sin() - p[1] * p[1]).collect();
        let exact = GaussianProcess::fit(&x, &y).unwrap();
        let sparse =
            SparseGaussianProcess::fit_with_lengthscale(&x, &y, exact.lengthscale_sq(), x.len())
                .unwrap();
        assert_eq!(sparse.inducing_count(), x.len());
        for q in [[0.1, 0.9], [0.45, 0.2], [0.77, 0.61], [1.3, -0.2]] {
            let (me, ve) = exact.predict(&q);
            let (ms, vs) = sparse.predict(&q);
            assert!((me - ms).abs() < 1e-5, "mean {me} vs {ms} at {q:?}");
            assert!((ve - vs).abs() < 1e-5, "var {ve} vs {vs} at {q:?}");
        }
    }

    #[test]
    fn sparse_low_rank_tracks_exact_closely() {
        // Under-complete inducing set on a smooth function: predictions
        // must stay close to exact even at m = n/4.
        let x = grid1d(32);
        let y: Vec<f64> = x.iter().map(|p| (2.0 * p[0]).sin()).collect();
        let exact = GaussianProcess::fit(&x, &y).unwrap();
        let sparse =
            SparseGaussianProcess::fit_with_lengthscale(&x, &y, exact.lengthscale_sq(), 8).unwrap();
        assert_eq!(sparse.inducing_count(), 8);
        for q in [0.05, 0.31, 0.62, 0.94] {
            let (me, _) = exact.predict(&[q]);
            let (ms, _) = sparse.predict(&[q]);
            assert!((me - ms).abs() < 1e-2, "mean {me} vs {ms} at {q}");
        }
    }

    #[test]
    fn sparse_batch_matches_scalar_bitwise() {
        let x: Vec<Vec<f64>> =
            (0..20).map(|i| vec![i as f64 / 19.0, (i * 3 % 7) as f64 / 6.0]).collect();
        let y: Vec<f64> = x.iter().map(|p| p[0] - p[1] * p[1]).collect();
        let gp = SparseGaussianProcess::fit(&x, &y, 6).unwrap();
        let pool: Vec<Vec<f64>> = (0..37)
            .map(|j| vec![(j as f64 * 0.41) % 1.2, (j as f64 * 0.23) % 1.0])
            .chain(x.iter().cloned())
            .collect();
        let batch = gp.predict_batch(&pool);
        assert_eq!(batch.len(), pool.len());
        for (p, (bm, bv)) in pool.iter().zip(&batch) {
            let (m, v) = gp.predict(p);
            assert_eq!(bm.to_bits(), m.to_bits(), "mean at {p:?}");
            assert_eq!(bv.to_bits(), v.to_bits(), "variance at {p:?}");
        }
    }

    #[test]
    fn sparse_extend_matches_full_sparse_refit() {
        let x = grid1d(16);
        let y: Vec<f64> = x.iter().map(|p| (3.0 * p[0]).cos()).collect();
        let mut inc = SparseGaussianProcess::fit(&x[..12], &y[..12], 5).unwrap();
        let ls = inc.lengthscale_sq();
        for i in 12..16 {
            assert!(inc.extend(&x[i], y[i]), "sparse extension failed at {i}");
        }
        assert_eq!(inc.len(), 16);
        // A refit over all 16 points selects its own inducing set, so
        // compare against a refit that reuses the incremental GP's frozen
        // lengthscale and (via the first 12 points) inducing selection.
        let refit = SparseGaussianProcess::fit_with_lengthscale(&x, &y, ls, 5).unwrap();
        for q in [0.08, 0.37, 0.66, 0.91] {
            let (mi, _) = inc.predict(&[q]);
            let (mr, _) = refit.predict(&[q]);
            assert!((mi - mr).abs() < 5e-2, "mean {mi} vs refit {mr} at {q}");
        }
    }

    #[test]
    fn sparse_extend_rejects_non_finite_unchanged() {
        let x = grid1d(8);
        let y: Vec<f64> = x.iter().map(|p| p[0]).collect();
        let mut gp = SparseGaussianProcess::fit(&x, &y, 4).unwrap();
        let before = gp.predict(&[0.4]);
        assert!(!gp.extend(&[f64::NAN], 0.0));
        assert!(!gp.extend(&[0.3], f64::INFINITY));
        assert_eq!(gp.predict(&[0.4]), before);
        assert_eq!(gp.len(), 8);
    }

    #[test]
    fn sparse_retarget_matches_fresh_weights() {
        // Retargeting replaces y and refreshes the weights against the
        // frozen factorization; a fresh fit at the same lengthscale and
        // inducing set differs only in its noise term, so predictions
        // agree to well under the noise scale.
        let x = grid1d(12);
        let y1: Vec<f64> = x.iter().map(|p| p[0]).collect();
        let y2: Vec<f64> = x.iter().map(|p| (6.0 * p[0]).sin()).collect();
        let mut gp = SparseGaussianProcess::fit(&x, &y1, x.len()).unwrap();
        assert!(gp.retarget(&y2));
        let fresh =
            SparseGaussianProcess::fit_with_lengthscale(&x, &y2, gp.lengthscale_sq(), x.len())
                .unwrap();
        for q in [0.11, 0.48, 0.83] {
            let (mr, _) = gp.predict(&[q]);
            let (mf, _) = fresh.predict(&[q]);
            assert!((mr - mf).abs() < 1e-3, "mean {mr} vs {mf} at {q}");
        }
        // Bad inputs leave the GP untouched.
        let before = gp.predict(&[0.4]);
        assert!(!gp.retarget(&y2[..5]));
        assert!(!gp.retarget(&[f64::NAN; 12]));
        assert_eq!(gp.predict(&[0.4]), before);
    }

    #[test]
    fn inducing_selection_collapses_duplicates() {
        let mut x = grid1d(4);
        x.push(x[1].clone());
        x.push(x[2].clone());
        let y = vec![0.0, 1.0, 2.0, 3.0, 1.0, 2.0];
        let gp = SparseGaussianProcess::fit(&x, &y, 6).unwrap();
        // Only 4 distinct locations exist, so farthest-point selection
        // stops early instead of ridging duplicate inducing rows.
        assert_eq!(gp.inducing_count(), 4);
        let (m, _) = gp.predict(&[x[1][0]]);
        assert!((m - 1.0).abs() < 0.2, "mean {m} at duplicated point");
    }

    #[test]
    fn exact_retarget_reuses_factorization() {
        let x = grid1d(9);
        let y1: Vec<f64> = x.iter().map(|p| p[0]).collect();
        let y2: Vec<f64> = x.iter().map(|p| (4.0 * p[0]).cos()).collect();
        let mut gp = GaussianProcess::fit(&x, &y1).unwrap();
        assert!(gp.retarget(&y2));
        // Same factorization, new targets: close to a fresh fit (which
        // differs only through the target-dependent jitter).
        let fresh = GaussianProcess::fit_with_lengthscale(&x, &y2, gp.lengthscale_sq()).unwrap();
        for q in [0.15, 0.52, 0.88] {
            let (mr, _) = gp.predict(&[q]);
            let (mf, _) = fresh.predict(&[q]);
            assert!((mr - mf).abs() < 1e-3, "mean {mr} vs {mf} at {q}");
        }
        let before = gp.predict(&[0.3]);
        assert!(!gp.retarget(&y2[..4]));
        assert!(!gp.retarget(&[f64::NAN; 9]));
        assert_eq!(gp.predict(&[0.3]), before);
    }
}
