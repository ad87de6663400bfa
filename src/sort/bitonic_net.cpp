#include "sort/bitonic_net.hpp"

#include <cstring>

namespace capmem::sort {

namespace {
// A Vec16 is held as four 128-bit vectors of 4 int32 lanes (GCC vector
// extensions; baseline SSE2 codegen). Every compare-exchange is a signed
// `<` mask and two `?:` blends, so the networks have no data-dependent
// branches.
typedef std::int32_t V4 __attribute__((vector_size(16)));

struct Quad {
  V4 v[4];
};

inline Quad load(const Vec16& a) {
  Quad q;
  std::memcpy(q.v, a.data(), sizeof(q.v));
  return q;
}
inline void store(Vec16& a, const Quad& q) {
  std::memcpy(a.data(), q.v, sizeof(q.v));
}

/// Lane-wise compare-exchange: afterwards lo = min(lo, hi), hi = max.
inline void cmpx(V4& lo, V4& hi) {
  const V4 lt = lo < hi;
  const V4 mn = lt ? lo : hi;
  hi = lt ? hi : lo;
  lo = mn;
}

inline V4 reverse(V4 x) { return __builtin_shufflevector(x, x, 3, 2, 1, 0); }

/// Lanes 2 and 1 apart inside each of `a` and `b` (the last two stages of
/// a bitonic cleaner): pairs the lanes across the two vectors with one
/// shuffle per operand, so each stage is a single compare-exchange.
inline void clean_lanes(V4& a, V4& b) {
  // Distance 2: (a0,a2) (a1,a3) (b0,b2) (b1,b3).
  V4 x = __builtin_shufflevector(a, b, 0, 1, 4, 5);
  V4 y = __builtin_shufflevector(a, b, 2, 3, 6, 7);
  cmpx(x, y);
  a = __builtin_shufflevector(x, y, 0, 1, 4, 5);
  b = __builtin_shufflevector(x, y, 2, 3, 6, 7);
  // Distance 1: (a0,a1) (a2,a3) (b0,b1) (b2,b3).
  x = __builtin_shufflevector(a, b, 0, 2, 4, 6);
  y = __builtin_shufflevector(a, b, 1, 3, 5, 7);
  cmpx(x, y);
  a = __builtin_shufflevector(x, y, 0, 4, 1, 5);
  b = __builtin_shufflevector(x, y, 2, 6, 3, 7);
}

/// Bitonic cleaner of width 8 on the bitonic sequence (a, b): sorts it.
inline void clean8(V4& a, V4& b) {
  cmpx(a, b);
  clean_lanes(a, b);
}

/// Bitonic cleaner of width 16 on the bitonic sequence q.v[0..3].
inline void clean16(Quad& q) {
  cmpx(q.v[0], q.v[2]);
  cmpx(q.v[1], q.v[3]);
  clean8(q.v[0], q.v[1]);
  clean8(q.v[2], q.v[3]);
}
}  // namespace

void sort16(Vec16& v) {
  Quad q = load(v);
  // Sort the four columns (optimal 4-input network), then transpose so each
  // vector holds one sorted run of 4.
  cmpx(q.v[0], q.v[1]);
  cmpx(q.v[2], q.v[3]);
  cmpx(q.v[0], q.v[2]);
  cmpx(q.v[1], q.v[3]);
  cmpx(q.v[1], q.v[2]);
  const V4 t0 = __builtin_shufflevector(q.v[0], q.v[1], 0, 4, 1, 5);
  const V4 t1 = __builtin_shufflevector(q.v[2], q.v[3], 0, 4, 1, 5);
  const V4 t2 = __builtin_shufflevector(q.v[0], q.v[1], 2, 6, 3, 7);
  const V4 t3 = __builtin_shufflevector(q.v[2], q.v[3], 2, 6, 3, 7);
  q.v[0] = __builtin_shufflevector(t0, t1, 0, 1, 4, 5);
  q.v[1] = __builtin_shufflevector(t0, t1, 2, 3, 6, 7);
  q.v[2] = __builtin_shufflevector(t2, t3, 0, 1, 4, 5);
  q.v[3] = __builtin_shufflevector(t2, t3, 2, 3, 6, 7);
  // Runs of 4 -> runs of 8: reversing the second run of each pair makes
  // the pair bitonic.
  q.v[1] = reverse(q.v[1]);
  q.v[3] = reverse(q.v[3]);
  cmpx(q.v[0], q.v[1]);
  cmpx(q.v[2], q.v[3]);
  clean_lanes(q.v[0], q.v[1]);
  clean_lanes(q.v[2], q.v[3]);
  // Runs of 8 -> 16: reverse the second run (vector order and lanes).
  const V4 r2 = reverse(q.v[3]);
  q.v[3] = reverse(q.v[2]);
  q.v[2] = r2;
  clean16(q);
  store(v, q);
}

void merge16(Vec16& lo, Vec16& hi) {
  // Reversing the second sorted run makes the 32 values bitonic; one
  // lane-wise compare-exchange splits them into the 16 smallest and the 16
  // largest, each bitonic, and a width-16 cleaner sorts each half.
  Quad a = load(lo);
  Quad b = load(hi);
  const V4 b0 = reverse(b.v[3]);
  const V4 b1 = reverse(b.v[2]);
  const V4 b2 = reverse(b.v[1]);
  b.v[3] = reverse(b.v[0]);
  b.v[0] = b0;
  b.v[1] = b1;
  b.v[2] = b2;
  cmpx(a.v[0], b.v[0]);
  cmpx(a.v[1], b.v[1]);
  cmpx(a.v[2], b.v[2]);
  cmpx(a.v[3], b.v[3]);
  clean16(a);
  clean16(b);
  store(lo, a);
  store(hi, b);
}

}  // namespace capmem::sort
