#include "service/protocol.hpp"

#include <charconv>
#include <cinttypes>
#include <cstdio>

namespace repro::service::proto {

int tokenize(const std::string& line, std::string_view* out, int cap) {
  int n = 0;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    if (i == line.size()) break;
    std::size_t j = i;
    while (j < line.size() && line[j] != ' ' && line[j] != '\t') ++j;
    if (n == cap) return -1;
    out[n++] = std::string_view(line).substr(i, j - i);
    i = j;
  }
  return n;
}

bool parse_u32(std::string_view s, std::uint32_t& out) {
  if (s.empty() || s.size() > 10) return false;
  std::uint64_t v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  if (v > 0xffffffffull) return false;
  out = static_cast<std::uint32_t>(v);
  return true;
}

bool parse_u64(std::string_view s, std::uint64_t& out) {
  if (s.empty() || s.size() > 20) return false;
  std::uint64_t v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return false;
    const std::uint64_t d = static_cast<std::uint64_t>(c - '0');
    if (v > (0xffffffffffffffffull - d) / 10) return false;
    v = v * 10 + d;
  }
  out = v;
  return true;
}

void append_u64(std::string& out, std::uint64_t v) {
  char tmp[24];
  const auto [end, ec] = std::to_chars(tmp, tmp + sizeof(tmp), v);
  out.append(tmp, end);
}

void append_list(std::string& out, std::span<const std::uint64_t> list) {
  out.reserve(out.size() + 21 * (list.size() + 1));
  append_u64(out, list.size());
  for (const std::uint64_t e : list) {
    out.push_back(' ');
    append_u64(out, e);
  }
}

const char kBadReqHelp[] =
    "ERR BADREQ expected: I|S|T <u32> <u32> [deadline_ms], "
    "K|R <k:2..8> <id>... [deadline_ms], A|D <set> <id>..., "
    "FLUSH, RELOAD [path], STATS, FINGERPRINT, or QUIT";

ParsedRequest parse_request(const std::string& line) {
  // Strict tokenizer: exact token counts, plain-decimal u32 fields. The
  // widest legal line is "R <k> <id>×8 <ms>" = 11 tokens; one extra slot
  // lets trailing garbage show up as a countable token instead of -1, so
  // both overlong and garbage lines land in the same BADREQ path.
  constexpr int kMaxToks = 3 + static_cast<int>(kMaxKwayIds) + 1;
  std::string_view toks[kMaxToks];
  const int nt = tokenize(line, toks, kMaxToks);
  ParsedRequest p;
  p.op = (nt >= 1 && toks[0].size() == 1) ? toks[0][0] : 0;
  bool ok = true;
  if (line == "FLUSH") {
    p.op = 'F';
    p.q.kind = QueryKind::kFlush;
  } else if (p.op == 'A' || p.op == 'D') {
    // Writes: "A|D <set> <id>..." — no deadline token (acknowledged
    // writes are never dropped, so a deadline would be meaningless).
    p.q.kind = p.op == 'A' ? QueryKind::kAdd : QueryKind::kDelete;
    ok = nt >= 3 && nt <= 2 + static_cast<int>(kMaxKwayIds) &&
         parse_u32(toks[1], p.q.a);
    for (int i = 2; ok && i < nt; ++i) {
      ok = parse_u32(toks[i], p.q.ids[i - 2]);
    }
    p.q.nids = ok ? static_cast<std::uint8_t>(nt - 2) : 0;
  } else if (p.op == 'I' || p.op == 'S' || p.op == 'T') {
    std::uint32_t y = 0;
    ok = (nt == 3 || nt == 4) && parse_u32(toks[1], p.q.a) &&
         parse_u32(toks[2], y) &&
         (nt == 3 || (p.have_dl = parse_u32(toks[3], p.dl_ms)));
    if (p.op == 'T') {
      p.q.kind = QueryKind::kTopK;
      p.q.k = y;
    } else {
      p.q.kind = p.op == 'I' ? QueryKind::kIntersect : QueryKind::kSupport;
      p.q.b = y;
    }
  } else if (p.op == 'K' || p.op == 'R') {
    p.q.kind = p.op == 'K' ? QueryKind::kKway : QueryKind::kRuleScore;
    std::uint32_t k = 0;
    ok = nt >= 2 && parse_u32(toks[1], k) && k >= 2 && k <= kMaxKwayIds;
    const int ids_end = 2 + static_cast<int>(k);
    ok = ok && (nt == ids_end || nt == ids_end + 1);
    for (int i = 2; ok && i < ids_end; ++i) {
      ok = parse_u32(toks[i], p.q.ids[i - 2]);
    }
    if (ok && nt == ids_end + 1) {
      ok = p.have_dl = parse_u32(toks[ids_end], p.dl_ms);
    }
    p.q.nids = static_cast<std::uint8_t>(k);
  } else {
    ok = false;
  }
  p.ok = ok;
  return p;
}

std::string format_result(const Result& r, char op) {
  char tmp[64];
  if (op == 'F') {
    std::snprintf(tmp, sizeof(tmp), "FLUSHED epoch=%" PRIu64, r.value);
    return tmp;
  }
  std::snprintf(tmp, sizeof(tmp), "OK %" PRIu64, r.value);
  std::string out = tmp;
  if (op == 'R') {
    std::snprintf(tmp, sizeof(tmp), " %" PRIu64, r.aux);
    out += tmp;
  }
  if (op == 'T') {
    for (std::uint32_t i = 0; i < r.topk_count; ++i) {
      std::snprintf(tmp, sizeof(tmp), " %u:%" PRIu64, r.topk[i].id,
                    r.topk[i].count);
      out += tmp;
    }
  }
  return out;
}

void fold_result(util::Fnv1a& fp, const Query& q, const Result& r) {
  fp.update(&q.kind, sizeof(q.kind));
  fp.update(&q.a, sizeof(q.a));
  fp.update(&q.b, sizeof(q.b));
  fp.update(&q.k, sizeof(q.k));
  fp.update(&q.nids, sizeof(q.nids));
  for (std::uint32_t i = 0; i < q.nids; ++i) {
    fp.update(&q.ids[i], sizeof(q.ids[i]));
  }
  fp.update(&r.value, sizeof(r.value));
  fp.update(&r.aux, sizeof(r.aux));
  for (std::uint32_t i = 0; i < r.topk_count; ++i) {
    fp.update(&r.topk[i].id, sizeof(r.topk[i].id));
    fp.update(&r.topk[i].count, sizeof(r.topk[i].count));
  }
}

}  // namespace repro::service::proto
