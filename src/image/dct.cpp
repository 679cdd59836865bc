#include "image/dct.h"

#include <cmath>

#include "core/check.h"

namespace advp {
namespace {

// Basis function k of the orthonormal n-point DCT-II at position i: the
// one expression behind both the Dct table and the 2-D basis images.
float basis_entry(int n, int k, int i) {
  return static_cast<float>(
      (k == 0 ? std::sqrt(1.0 / n) : std::sqrt(2.0 / n)) *
      std::cos(M_PI * (2.0 * i + 1.0) * k / (2.0 * n)));
}

}  // namespace

Dct::Dct(int n) : n_(n), table_(static_cast<std::size_t>(n) * n) {
  ADVP_CHECK(n > 0);
  for (int k = 0; k < n; ++k)
    for (int i = 0; i < n; ++i)
      table_[static_cast<std::size_t>(k) * n + i] = basis_entry(n, k, i);
}

float Dct::basis(int k, int i) const {
  ADVP_DCHECK(k >= 0 && k < n_ && i >= 0 && i < n_);
  return table_[static_cast<std::size_t>(k) * n_ + i];
}

std::vector<float> Dct::forward(const std::vector<float>& x) const {
  ADVP_CHECK(static_cast<int>(x.size()) == n_);
  std::vector<float> c(static_cast<std::size_t>(n_), 0.f);
  for (int k = 0; k < n_; ++k) {
    double s = 0.0;
    for (int i = 0; i < n_; ++i) s += static_cast<double>(basis(k, i)) * x[static_cast<std::size_t>(i)];
    c[static_cast<std::size_t>(k)] = static_cast<float>(s);
  }
  return c;
}

std::vector<float> Dct::inverse(const std::vector<float>& coeffs) const {
  ADVP_CHECK(static_cast<int>(coeffs.size()) == n_);
  std::vector<float> x(static_cast<std::size_t>(n_), 0.f);
  for (int i = 0; i < n_; ++i) {
    double s = 0.0;
    for (int k = 0; k < n_; ++k) s += static_cast<double>(basis(k, i)) * coeffs[static_cast<std::size_t>(k)];
    x[static_cast<std::size_t>(i)] = static_cast<float>(s);
  }
  return x;
}

Tensor dct2_basis_image(int h, int w, int u, int v, int channel) {
  ADVP_CHECK(u >= 0 && u < h && v >= 0 && v < w);
  ADVP_CHECK(channel >= 0 && channel < 3);
  // The image reads only row u of the h-point table and row v of the
  // w-point one: h + w cos calls where whole tables would take h*h + w*w.
  std::vector<float> col(static_cast<std::size_t>(w));
  for (int x = 0; x < w; ++x)
    col[static_cast<std::size_t>(x)] = basis_entry(w, v, x);
  Tensor img({3, h, w});
  for (int y = 0; y < h; ++y) {
    const float row = basis_entry(h, u, y);
    for (int x = 0; x < w; ++x)
      img.at(channel, y, x) = row * col[static_cast<std::size_t>(x)];
  }
  return img;
}

std::vector<float> dct2_forward(const std::vector<float>& plane, int h, int w) {
  ADVP_CHECK(static_cast<int>(plane.size()) == h * w);
  Dct rows(w), cols(h);
  // transform rows, then columns
  std::vector<float> tmp(plane.size());
  std::vector<float> rowbuf(static_cast<std::size_t>(w));
  for (int y = 0; y < h; ++y) {
    std::copy(plane.begin() + static_cast<long>(y) * w,
              plane.begin() + static_cast<long>(y + 1) * w, rowbuf.begin());
    auto c = rows.forward(rowbuf);
    std::copy(c.begin(), c.end(), tmp.begin() + static_cast<long>(y) * w);
  }
  std::vector<float> out(plane.size());
  std::vector<float> colbuf(static_cast<std::size_t>(h));
  for (int x = 0; x < w; ++x) {
    for (int y = 0; y < h; ++y) colbuf[static_cast<std::size_t>(y)] = tmp[static_cast<std::size_t>(y) * w + x];
    auto c = cols.forward(colbuf);
    for (int y = 0; y < h; ++y) out[static_cast<std::size_t>(y) * w + x] = c[static_cast<std::size_t>(y)];
  }
  return out;
}

std::vector<float> dct2_inverse(const std::vector<float>& coeffs, int h, int w) {
  ADVP_CHECK(static_cast<int>(coeffs.size()) == h * w);
  Dct rows(w), cols(h);
  std::vector<float> tmp(coeffs.size());
  std::vector<float> colbuf(static_cast<std::size_t>(h));
  for (int x = 0; x < w; ++x) {
    for (int y = 0; y < h; ++y) colbuf[static_cast<std::size_t>(y)] = coeffs[static_cast<std::size_t>(y) * w + x];
    auto c = cols.inverse(colbuf);
    for (int y = 0; y < h; ++y) tmp[static_cast<std::size_t>(y) * w + x] = c[static_cast<std::size_t>(y)];
  }
  std::vector<float> out(coeffs.size());
  std::vector<float> rowbuf(static_cast<std::size_t>(w));
  for (int y = 0; y < h; ++y) {
    std::copy(tmp.begin() + static_cast<long>(y) * w,
              tmp.begin() + static_cast<long>(y + 1) * w, rowbuf.begin());
    auto c = rows.inverse(rowbuf);
    std::copy(c.begin(), c.end(), out.begin() + static_cast<long>(y) * w);
  }
  return out;
}

}  // namespace advp
