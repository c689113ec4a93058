#include "ml/lbfgs.h"

#include <algorithm>
#include <cmath>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "common/check.h"

namespace bhpo {

namespace {

double Dot(const double* a, const double* b, size_t n) {
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

// Largest |v[i]|, ignoring NaN entries exactly as a std::max(best, |x|)
// scan does. Max is order-free over non-NaN values, and MAXPD returns its
// second operand (best) when the first is NaN, so two lanes give the scan's
// bits.
double InfNorm(const std::vector<double>& v) {
  const double* p = v.data();
  size_t n = v.size();
  size_t i = 0;
  double best = 0.0;
#if defined(__SSE2__)
  const __m128d abs_mask =
      _mm_castsi128_pd(_mm_set1_epi64x(0x7FFFFFFFFFFFFFFFLL));
  __m128d lanes = _mm_setzero_pd();
  for (; i + 2 <= n; i += 2) {
    lanes = _mm_max_pd(_mm_and_pd(_mm_loadu_pd(p + i), abs_mask), lanes);
  }
  double pair[2];
  _mm_storeu_pd(pair, lanes);
  best = std::max(pair[0], pair[1]);
#endif
  for (; i < n; ++i) best = std::max(best, std::fabs(p[i]));
  return best;
}

struct HistoryPair {
  std::vector<double> s;  // x_{k+1} - x_k
  std::vector<double> y;  // g_{k+1} - g_k
  double sy;              // y . s
  double rho;             // 1 / (y . s)
  double yy;              // y . y
};

// The newest `memory` curvature pairs, in a ring of memory + 1 slots: the
// spare slot is where the next candidate pair is written, so a candidate
// that is rejected never clobbers a stored one. Slot storage is allocated
// on first use and then reused, so iterations allocate nothing.
class History {
 public:
  explicit History(size_t memory) : memory_(memory) {
    slots_.reserve(memory + 1);
  }

  size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  void clear() { count_ = 0; }
  // i = 0 is the oldest stored pair, size() - 1 the newest.
  const HistoryPair& operator[](size_t i) const {
    return slots_[(oldest_ + i) % (memory_ + 1)];
  }

  // The slot the next pair is written into; Push() then stores it, evicting
  // the oldest pair once `memory` are held.
  HistoryPair& Next(size_t n) {
    size_t index = (oldest_ + count_) % (memory_ + 1);
    while (slots_.size() <= index) {
      slots_.emplace_back();
      slots_.back().s.resize(n);
      slots_.back().y.resize(n);
    }
    return slots_[index];
  }
  void Push() {
    if (count_ < memory_) {
      ++count_;
    } else {
      oldest_ = (oldest_ + 1) % (memory_ + 1);
    }
  }

 private:
  size_t memory_;
  size_t oldest_ = 0;
  size_t count_ = 0;
  std::vector<HistoryPair> slots_;
};

// Two-loop recursion: q = H_k * grad using the stored curvature pairs.
// `alphas` holds history.size() entries. Each dot keeps the scalar loop's
// summation order; loop 1 fuses each axpy on q with the next pair's dot,
// which reads q[j] right after it is updated.
void ApplyInverseHessian(const History& history,
                         const std::vector<double>& grad,
                         std::vector<double>* alphas,
                         std::vector<double>* q_out) {
  std::vector<double>& q = *q_out;
  q = grad;
  size_t n = q.size();
  size_t m = history.size();
  if (m > 0) {
    double dot = Dot(history[m - 1].s.data(), q.data(), n);
    for (size_t i = m; i-- > 0;) {
      const HistoryPair& h = history[i];
      double alpha = h.rho * dot;
      (*alphas)[i] = alpha;
      const double* y = h.y.data();
      if (i == 0) {
        for (size_t j = 0; j < n; ++j) q[j] -= alpha * y[j];
        break;
      }
      const double* s_next = history[i - 1].s.data();
      double acc = 0.0;
      for (size_t j = 0; j < n; ++j) {
        q[j] -= alpha * y[j];
        acc += s_next[j] * q[j];
      }
      dot = acc;
    }
    // Initial scaling gamma = (s.y)/(y.y) of the newest pair. Both dots
    // were taken when the pair was stored (s.y is bitwise y.s: the same
    // products summed in the same order).
    const HistoryPair& newest = history[m - 1];
    if (newest.yy > 0.0) {
      double gamma = newest.sy / newest.yy;
      for (double& x : q) x *= gamma;
    }
  }
  for (size_t i = 0; i < m; ++i) {
    const HistoryPair& h = history[i];
    double beta = h.rho * Dot(h.y.data(), q.data(), n);
    double coeff = (*alphas)[i] - beta;
    const double* s = h.s.data();
    for (size_t j = 0; j < n; ++j) q[j] += coeff * s[j];
  }
}

}  // namespace

Result<LbfgsSummary> MinimizeLbfgs(const ObjectiveFn& objective,
                                   std::vector<double>* x,
                                   const LbfgsOptions& options) {
  if (!objective) {
    return Status::InvalidArgument("null objective");
  }
  if (x == nullptr || x->empty()) {
    return Status::InvalidArgument("empty parameter vector");
  }
  if (options.max_iterations < 1 || options.memory < 1) {
    return Status::InvalidArgument("max_iterations and memory must be >= 1");
  }

  size_t n = x->size();
  LbfgsSummary summary;

  std::vector<double> grad(n);
  double f = objective(*x, &grad);
  ++summary.function_evaluations;

  // Everything the iterations touch is allocated here, once.
  History history(static_cast<size_t>(options.memory));
  std::vector<double> alphas(static_cast<size_t>(options.memory));
  std::vector<double> direction(n), new_x(n), new_grad(n);

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    summary.iterations = iter + 1;
    double gnorm = InfNorm(grad);
    if (gnorm < options.gradient_tolerance) {
      summary.converged = true;
      break;
    }

    // Search direction d = -H * g.
    ApplyInverseHessian(history, grad, &alphas, &direction);
    for (double& d : direction) d = -d;
    double dg = Dot(direction.data(), grad.data(), n);
    if (dg >= 0.0) {
      // Not a descent direction (numerical breakdown): restart from
      // steepest descent.
      history.clear();
      for (size_t i = 0; i < n; ++i) direction[i] = -grad[i];
      dg = -Dot(grad.data(), grad.data(), n);
    }

    // Backtracking Armijo line search.
    double step = (iter == 0 && history.empty())
                      ? std::min(1.0, 1.0 / std::max(1e-12, gnorm))
                      : 1.0;
    double new_f = f;
    bool accepted = false;
    for (int ls = 0; ls < options.max_line_search_steps; ++ls) {
      for (size_t i = 0; i < n; ++i) {
        new_x[i] = (*x)[i] + step * direction[i];
      }
      new_f = objective(new_x, &new_grad);
      ++summary.function_evaluations;
      if (std::isfinite(new_f) && new_f <= f + options.armijo_c1 * step * dg) {
        accepted = true;
        break;
      }
      step *= options.backtrack_factor;
    }
    if (!accepted) break;  // Line search failed; return best point so far.

    // Curvature pair, written straight into the ring's next slot.
    HistoryPair& pair = history.Next(n);
    double ys = 0.0;
    double yy = 0.0;
    for (size_t i = 0; i < n; ++i) {
      double s_i = new_x[i] - (*x)[i];
      double y_i = new_grad[i] - grad[i];
      pair.s[i] = s_i;
      pair.y[i] = y_i;
      ys += y_i * s_i;
      yy += y_i * y_i;
    }
    if (ys > 1e-12) {  // Skip pairs that would break positive definiteness.
      pair.sy = ys;
      pair.rho = 1.0 / ys;
      pair.yy = yy;
      history.Push();
    }

    double f_change = std::fabs(new_f - f);
    x->swap(new_x);
    grad.swap(new_grad);
    f = new_f;
    if (f_change <= options.function_tolerance * std::max(std::fabs(f), 1.0)) {
      summary.converged = true;
      break;
    }
  }

  summary.final_objective = f;
  summary.final_gradient_norm = InfNorm(grad);
  return summary;
}

}  // namespace bhpo
