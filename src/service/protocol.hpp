// The serve-path line protocol, factored out of batmap_serve so the
// sharded router front end parses, formats, and fingerprints requests
// byte-identically to a single shard. Any front end that keeps these four
// pieces paired — parse_request, format_result, fold_result, and the
// typed error strings — produces reply streams (including FINGERPRINT)
// that diff clean against any other front end serving the same data.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "service/query_engine.hpp"
#include "util/fnv.hpp"

namespace repro::service::proto {

/// Splits on runs of spaces/tabs. Returns the token count, or -1 when the
/// line has more than `cap` tokens (itself a malformed request).
int tokenize(const std::string& line, std::string_view* out, int cap);

/// Strict decimal u32: digits only — no sign, no hex, no leading/trailing
/// junk — and the value must fit 32 bits. This is what rejects "-2"
/// (sscanf's %u silently wraps it to 4294967294) and "2junk".
bool parse_u32(std::string_view s, std::uint32_t& out);

/// Strict decimal u64 (same rules, 64-bit range). Element ids on the
/// internal shard protocol are u64.
bool parse_u64(std::string_view s, std::uint64_t& out);

/// Appends the decimal `v`.
void append_u64(std::string& out, std::uint64_t v);

/// Appends an element list as the X verb carries it, "<m> <e>...", in
/// requests (router) and replies (shard) alike.
void append_list(std::string& out, std::span<const std::uint64_t> list);

/// The canonical BADREQ reply for a malformed query line. Shared verbatim
/// so router and shard error streams stay byte-identical.
extern const char kBadReqHelp[];

/// Incremental whitespace tokenizer for lines whose token count has no
/// fixed cap — the internal X verb and its replies carry element lists.
/// Same separator rules as tokenize(), same strict numeric parses.
struct Cursor {
  std::string_view s;
  std::size_t i = 0;

  bool tok(std::string_view& out) {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\t')) ++i;
    if (i == s.size()) return false;
    std::size_t j = i;
    while (j < s.size() && s[j] != ' ' && s[j] != '\t') ++j;
    out = s.substr(i, j - i);
    i = j;
    return true;
  }
  bool u32(std::uint32_t& v) {
    std::string_view t;
    return tok(t) && parse_u32(t, v);
  }
  bool u64(std::uint64_t& v) {
    std::string_view t;
    return tok(t) && parse_u64(t, v);
  }
  bool done() {
    std::string_view t;
    return !tok(t);
  }
};

/// One parsed query line. `op` is the protocol letter ('I','S','T','K',
/// 'R','A','D', or 'F' for FLUSH); `ok=false` means BADREQ.
struct ParsedRequest {
  bool ok = false;
  char op = 0;
  Query q;
  std::uint32_t dl_ms = 0;
  bool have_dl = false;
};

/// Parses a query/write/FLUSH line with the strict tokenizer. Control
/// verbs that differ per front end (QUIT, STATS, FINGERPRINT, RELOAD, X)
/// must be matched by the caller before calling this.
ParsedRequest parse_request(const std::string& line);

/// Formats the success reply for `op`: "OK <v>", "OK <v> <aux>" for 'R',
/// "OK <m> id:count ..." for 'T', "FLUSHED epoch=<e>" for 'F'.
std::string format_result(const Result& r, char op);

/// Folds one (query, result) pair into a connection fingerprint. Error
/// replies never fold, so a script of valid queries has a deterministic
/// digest regardless of interleaved errors.
void fold_result(util::Fnv1a& fp, const Query& q, const Result& r);

}  // namespace repro::service::proto
