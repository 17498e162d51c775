#include "data.h"

#include <algorithm>
#include <cmath>

#include "util/mathutil.h"
#include "workload/generators.h"
#include "workload/oracle.h"

namespace perfbench {

namespace {

// MakeCoordinatesDistinct / MakeEndpointsDistinct space ranks by 2.
constexpr int64_t kRespace = kGrid / 2;

// The point a fraction f in [0, 1) of the way from lo to hi on a log scale.
double LogAt(double lo, double hi, double f) {
  if (hi <= lo) return lo;
  return std::exp(std::log(lo) + f * (std::log(hi) - std::log(lo)));
}

// Shape fractions of candidate c.  The first draw of every candidate comes
// from a low-discrepancy (R2) sequence that does not depend on the seed, so
// the hottest candidates have the same answer-size targets under every
// seed and per-query work stays comparable across seeds; retries after an
// out-of-range answer draw from the seeded generator.
std::pair<double, double> ShapeFractions(size_t c, int attempt, Rng* rng) {
  if (attempt > 0) return {rng->NextDouble(), rng->NextDouble()};
  const double a = 0.5 + 0.7548776662466927 * double(c);
  const double b = 0.5 + 0.5698402909980532 * double(c);
  return {a - std::floor(a), b - std::floor(b)};
}

// Rank r (0-based) of n on the grid; the query bound "x >= RankCoord(r)"
// keeps exactly ranks r..n-1.
int64_t RankCoord(uint64_t r) { return static_cast<int64_t>(r) * kGrid; }

// Draws until the oracle answer size lands in [t_lo, t_hi]; gives up after
// a bounded number of tries and keeps the last draw, so a pathological seed
// still yields a full pool.
template <typename Draw, typename Answer>
std::vector<Candidate> Sample(size_t count, QueryKind kind, uint64_t t_lo,
                              uint64_t t_hi, Draw draw, Answer answer) {
  std::vector<Candidate> out;
  out.reserve(count);
  for (size_t c = 0; c < count; ++c) {
    Candidate cand;
    cand.kind = kind;
    for (int attempt = 0; attempt < 64; ++attempt) {
      cand.q = draw(c, attempt);
      cand.expect = answer(cand.q);
      if (cand.expect.count >= t_lo && cand.expect.count <= t_hi) break;
    }
    out.push_back(cand);
  }
  return out;
}

}  // namespace

std::vector<Point> GridPoints(uint64_t n, uint64_t seed) {
  PointGenOptions o;
  o.n = n;
  o.seed = seed;
  std::vector<Point> pts = GenPointsUniform(o);
  MakeCoordinatesDistinct(&pts);
  for (Point& p : pts) {
    p.x *= kRespace;
    p.y *= kRespace;
  }
  return pts;
}

std::vector<Interval> GridIntervals(uint64_t n, double mean_len_frac,
                                    uint64_t seed) {
  IntervalGenOptions o;
  o.n = n;
  o.mean_len_frac = mean_len_frac;
  o.seed = seed;
  std::vector<Interval> ivs = GenIntervalsUniform(o);
  MakeEndpointsDistinct(&ivs);
  for (Interval& iv : ivs) {
    iv.lo *= kRespace;
    iv.hi *= kRespace;
  }
  return ivs;
}

std::vector<Candidate> TwoSidedCandidates(const std::vector<Point>& pts,
                                          size_t count, uint64_t t_lo,
                                          uint64_t t_hi, Rng* rng) {
  const double n = static_cast<double>(pts.size());
  auto draw = [&](size_t c, int attempt) {
    // Expected output t = n * u * v for quadrant fractions u (x) and v (y).
    const auto [f, g] = ShapeFractions(c, attempt, rng);
    const double t = LogAt(std::max<double>(1, t_lo), double(t_hi), f);
    const double u = LogAt(std::min(1.0, t / n), 1.0, g);
    const double v = std::min(1.0, t / (n * u));
    const auto rx = static_cast<uint64_t>(std::llround(n - u * n));
    const auto ry = static_cast<uint64_t>(std::llround(n - v * n));
    return ServeQuery::TwoSided(TwoSidedQuery{RankCoord(rx), RankCoord(ry)});
  };
  auto answer = [&](const ServeQuery& q) {
    return Digest(BruteTwoSided(pts, q.two_sided));
  };
  return Sample(count, QueryKind::kTwoSided, t_lo, t_hi, draw, answer);
}

std::vector<Candidate> ThreeSidedCandidates(const std::vector<Point>& pts,
                                            size_t count, uint64_t t_lo,
                                            uint64_t t_hi,
                                            double max_slab_over_t, Rng* rng) {
  const double n = static_cast<double>(pts.size());
  auto draw = [&](size_t c, int attempt) {
    // Expected output t = w * v for an x-slab of w ranks and y-fraction v.
    const auto [f, g] = ShapeFractions(c, attempt, rng);
    const double t = LogAt(std::max<double>(1, t_lo), double(t_hi), f);
    const double w = LogAt(std::min(n, t), std::min(n, t * max_slab_over_t), g);
    const double v = std::min(1.0, t / w);
    const auto width = std::max<uint64_t>(1, static_cast<uint64_t>(w));
    const uint64_t r0 = rng->Uniform(pts.size() - width + 1);
    const auto ry = static_cast<uint64_t>(std::llround(n - v * n));
    return ServeQuery::ThreeSided(ThreeSidedQuery{
        RankCoord(r0), RankCoord(r0 + width - 1), RankCoord(ry)});
  };
  auto answer = [&](const ServeQuery& q) {
    return Digest(BruteThreeSided(pts, q.three_sided));
  };
  return Sample(count, QueryKind::kThreeSided, t_lo, t_hi, draw, answer);
}

std::vector<Candidate> StabCandidates(const std::vector<Interval>& ivs,
                                      size_t count, uint64_t t_lo,
                                      uint64_t t_hi, Rng* rng) {
  // Endpoints occupy 2n grid slots; a stab just above a grid point sits in
  // the open gap to the next one.
  const uint64_t slots = 2 * ivs.size();
  auto draw = [&](size_t, int) {
    return ServeQuery::Stab(RankCoord(rng->Uniform(slots)) + 1);
  };
  auto answer = [&](const ServeQuery& q) {
    return Digest(BruteStab(ivs, q.stab));
  };
  return Sample(count, QueryKind::kStabbing, t_lo, t_hi, draw, answer);
}

std::vector<Draw> MakeStream(const std::vector<Candidate> cands[3],
                             size_t count, double theta, uint64_t seed) {
  constexpr double kMix[3] = {0.4, 0.3, 0.3};
  Rng rng(seed);
  std::vector<Zipf> zipf;
  for (int k = 0; k < 3; ++k) {
    zipf.emplace_back(cands[k].size(), theta, seed * 31 + k);
  }
  std::vector<Draw> out(count);
  for (Draw& dr : out) {
    const double u = rng.NextDouble();
    const int k = u < kMix[0] ? 0 : (u < kMix[0] + kMix[1] ? 1 : 2);
    dr.kind = static_cast<uint8_t>(k);
    dr.cand = static_cast<uint32_t>(zipf[k].Next());
  }
  return out;
}

ServeQuery Tagged(QueryKind kind, const ServeQuery& q, uint64_t i) {
  ServeQuery t = q;
  const auto lo = static_cast<int64_t>(i % (kGrid - 2));
  const auto hi = static_cast<int64_t>((i / (kGrid - 2)) % (kGrid - 2));
  switch (kind) {
    case QueryKind::kTwoSided:
      t.two_sided.x_min -= lo;
      t.two_sided.y_min -= hi;
      break;
    case QueryKind::kThreeSided:
      t.three_sided.x_min -= lo;
      t.three_sided.y_min -= hi;
      break;
    case QueryKind::kStabbing:
      t.stab += lo;  // stays inside the open gap (stab is grid + 1)
      break;
  }
  return t;
}

void BoundTracker::Add(uint64_t reads, uint64_t n, uint64_t t, uint64_t b,
                       uint64_t parts) {
  const uint64_t bound = std::max<uint64_t>(
      1, parts * CeilLogBase(std::max<uint64_t>(n, 2), b) + CeilDiv(t, b) +
             (parts - 1));
  const double r = static_cast<double>(reads) / static_cast<double>(bound);
  max = std::max(max, r);
  sum += r;
  ++count;
}


const char* KindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kTwoSided:
      return "two_sided";
    case QueryKind::kThreeSided:
      return "three_sided";
    case QueryKind::kStabbing:
      return "stab";
  }
  return "unknown";
}

void AddQueryArgs(SpanScope* span, const QueryStats& stats, uint64_t records,
                  uint64_t n, uint64_t b) {
  if (!span->active()) return;
  span->Arg("navigation", double(stats.navigation));
  span->Arg("cache", double(stats.cache));
  span->Arg("corner", double(stats.corner));
  span->Arg("ancestor", double(stats.ancestor));
  span->Arg("sibling", double(stats.sibling));
  span->Arg("descendant", double(stats.descendant));
  span->Arg("buffer", double(stats.buffer));
  span->Arg("useful", double(stats.useful));
  span->Arg("records", double(records));
  span->Arg("n", double(n));
  span->Arg("b", double(b));
}

Status StaticHandles::Open(PageDevice* dev, const PageId manifests[3]) {
  two = std::make_unique<ExternalPst>(dev);
  three = std::make_unique<ThreeSidedPst>(dev);
  stab = std::make_unique<ExtSegmentTree>(dev);
  PC_RETURN_IF_ERROR(two->Open(manifests[0]));
  PC_RETURN_IF_ERROR(three->Open(manifests[1]));
  PC_RETURN_IF_ERROR(stab->Open(manifests[2]));
  records_per_page = RecordsPerPage(dev->page_size());
  return Status::OK();
}

uint64_t StaticHandles::size(QueryKind kind) const {
  switch (kind) {
    case QueryKind::kTwoSided:
      return two->size();
    case QueryKind::kThreeSided:
      return three->size();
    case QueryKind::kStabbing:
      return stab->size();
  }
  return 0;
}

Status StaticHandles::Run(QueryKind kind, const ServeQuery& q, uint64_t req,
                          Fingerprint* got, QueryStats* stats) const {
  static const char* const kSpan[] = {"core:two_sided", "core:three_sided",
                                      "core:stab"};
  SpanScope span(kSpan[static_cast<int>(kind)], req);
  std::vector<Point> pts;
  std::vector<Interval> ivs;
  Status s;
  switch (kind) {
    case QueryKind::kTwoSided:
      s = two->QueryTwoSided(q.two_sided, &pts, stats);
      *got = Digest(pts);
      break;
    case QueryKind::kThreeSided:
      s = three->QueryThreeSided(q.three_sided, &pts, stats);
      *got = Digest(pts);
      break;
    case QueryKind::kStabbing:
      s = stab->Stab(q.stab, &ivs, stats);
      *got = Digest(ivs);
      break;
  }
  AddQueryArgs(&span, *stats, got->count, size(kind), records_per_page);
  return s;
}

}  // namespace perfbench
