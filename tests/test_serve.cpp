// Tests for the serving stack: the crash-safe file helpers
// (common/atomic_file.hpp), the bounded-retry engine additions
// (exec::run_with_retry), the strict JSON codec, the request protocol, the
// sharded result cache, and the Server's robustness contract — deadlines,
// shedding, retry, chaos kills, and the central byte-identity invariant:
// warm-cache replies equal cold recomputation, across machine presets and
// coherence protocols, even after torn writes and a hard mid-write kill of
// the real daemon binary.
#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <future>
#include <iterator>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/atomic_file.hpp"
#include "exec/recovery.hpp"
#include "gtest/gtest.h"
#include "serve/cache.hpp"
#include "serve/chaos.hpp"
#include "serve/daemon.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"

namespace {

using namespace capmem;
using namespace capmem::serve;

std::string make_temp_dir() {
  std::string tmpl = ::testing::TempDir() + "capmem_serve_XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  const char* d = ::mkdtemp(buf.data());
  EXPECT_NE(d, nullptr);
  return std::string(d);
}

std::vector<std::string> drain_lines(Server& server) {
  std::ostringstream os;
  server.drain(os);
  std::vector<std::string> lines;
  std::istringstream is(os.str());
  std::string line;
  while (std::getline(is, line)) lines.push_back(line);
  return lines;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

int count_dir_entries(const std::string& dir, const std::string& suffix) {
  int n = 0;
  if (DIR* d = ::opendir(dir.c_str())) {
    while (const dirent* e = ::readdir(d)) {
      const std::string name = e->d_name;
      if (name.size() >= suffix.size() &&
          name.compare(name.size() - suffix.size(), suffix.size(),
                       suffix) == 0) {
        ++n;
      }
    }
    ::closedir(d);
  }
  return n;
}

std::string error_code_of(const std::string& reply) {
  const Json doc = Json::parse(reply);
  const Json* ok = doc.find("ok");
  if (ok && ok->as_bool()) return "";
  return doc.find("error")->find("code")->as_string();
}

// ---------------------------------------------------------------------------
// common/atomic_file.hpp

TEST(AtomicFile, WriteAndReadBack) {
  const std::string dir = make_temp_dir();
  const std::string path = dir + "/a.txt";
  common::atomic_write_file(path, std::string("hello"));
  std::vector<std::uint8_t> got;
  ASSERT_TRUE(common::read_file(path, &got));
  EXPECT_EQ(std::string(got.begin(), got.end()), "hello");
  common::atomic_write_file(path, std::string("rewritten"));
  ASSERT_TRUE(common::read_file(path, &got));
  EXPECT_EQ(std::string(got.begin(), got.end()), "rewritten");
  // No temp litter left behind.
  EXPECT_EQ(count_dir_entries(dir, ""), 3);  // ".", "..", "a.txt"
}

TEST(AtomicFile, ReadMissingIsFalse) {
  std::vector<std::uint8_t> got;
  EXPECT_FALSE(common::read_file(make_temp_dir() + "/nope", &got));
}

TEST(AtomicFile, SealUnsealRoundTrip) {
  const std::vector<std::uint8_t> payload = {1, 2, 3, 250, 0, 9};
  const std::vector<std::uint8_t> sealed = common::seal(7, payload);
  const common::Unsealed u = common::unseal(sealed, 7);
  EXPECT_EQ(u.version, 7u);
  EXPECT_EQ(u.payload, payload);
  // Determinism: sealing the same payload twice is byte-identical.
  EXPECT_EQ(sealed, common::seal(7, payload));
}

/// The CAPFILE1 envelope byte for byte: "CAPFILE1", u32 version, u64
/// payload length, payload, then the FNV-1a of everything before it, all
/// little-endian. A change to the byte helpers or the hasher shows here.
TEST(AtomicFile, SealedBytesArePinned) {
  const std::vector<std::uint8_t> want = {
      'C',  'A',  'P',  'F',  'I',  'L',  'E',  '1',   // magic
      0x07, 0x00, 0x00, 0x00,                          // version 7
      0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // payload length 3
      0x01, 0x02, 0x03,                                // payload
      0x48, 0x38, 0xca, 0x7c, 0xb4, 0x75, 0x6c, 0xe7,  // FNV-1a
  };
  EXPECT_EQ(common::seal(7, {1, 2, 3}), want);
  const common::Unsealed u = common::unseal(want, 7);
  EXPECT_EQ(u.version, 7u);
  EXPECT_EQ(u.payload, (std::vector<std::uint8_t>{1, 2, 3}));
}

TEST(AtomicFile, UnsealRejectsEveryMalformation) {
  const std::vector<std::uint8_t> payload = {10, 20, 30};
  const std::vector<std::uint8_t> sealed = common::seal(3, payload);

  auto kind_of = [](const std::vector<std::uint8_t>& bytes,
                    std::int64_t expect_version) {
    try {
      common::unseal(bytes, expect_version);
      return std::string("ok");
    } catch (const common::FileFormatError& e) {
      return std::string(common::to_string(e.kind()));
    }
  };

  // Truncation at several cut points.
  for (const std::size_t cut : {std::size_t{0}, std::size_t{4},
                                std::size_t{12}, sealed.size() - 1}) {
    std::vector<std::uint8_t> torn(sealed.begin(),
                                   sealed.begin() + static_cast<long>(cut));
    EXPECT_NE(kind_of(torn, 3), "ok") << "cut=" << cut;
  }
  // Bad magic.
  std::vector<std::uint8_t> magic = sealed;
  magic[0] ^= 0xFF;
  EXPECT_EQ(kind_of(magic, 3), "bad-magic");
  // Version skew.
  EXPECT_EQ(kind_of(sealed, 4), "version-mismatch");
  // Bit flip in the payload (past the 20-byte magic/version/len header).
  std::vector<std::uint8_t> flipped = sealed;
  flipped[21] ^= 0x01;
  EXPECT_EQ(kind_of(flipped, 3), "corrupt");
  // Bit flip in the length field reads as truncation.
  std::vector<std::uint8_t> len_flip = sealed;
  len_flip[14] ^= 0x01;
  EXPECT_EQ(kind_of(len_flip, 3), "truncated");
  // A length whose header + payload + checksum sum would wrap is still a
  // truncation, not a short read of the wrong bytes.
  std::vector<std::uint8_t> huge = sealed;
  for (std::size_t i = 12; i < 20; ++i) huge[i] = 0xff;
  EXPECT_EQ(kind_of(huge, 3), "truncated");
  // Trailing bytes after the checksum.
  std::vector<std::uint8_t> trailing = sealed;
  trailing.push_back(0);
  EXPECT_EQ(kind_of(trailing, 3), "corrupt");
}

// ---------------------------------------------------------------------------
// exec::run_with_retry and the total-backoff wall-time cap (satellite b)

TEST(RunWithRetry, TransientRetriesThenSucceeds) {
  int calls = 0;
  exec::RetryPolicy rp;
  rp.max_attempts = 5;
  rp.sleep = false;
  const exec::RetryOutcome out = exec::run_with_retry(
      [&] {
        if (++calls < 3) throw std::bad_alloc();
      },
      rp);
  EXPECT_EQ(out.status, exec::JobStatus::kOk);
  EXPECT_EQ(out.attempts, 3);
  EXPECT_FALSE(out.backoff_capped);
}

TEST(RunWithRetry, DeterministicFailureIsNotRetried) {
  int calls = 0;
  exec::RetryPolicy rp;
  rp.max_attempts = 5;
  rp.sleep = false;
  const exec::RetryOutcome out = exec::run_with_retry(
      [&] {
        ++calls;
        throw CheckError("always wrong");
      },
      rp);
  EXPECT_EQ(out.status, exec::JobStatus::kQuarantined);
  EXPECT_EQ(calls, 1);
}

TEST(RunWithRetry, TotalBackoffCapStopsRetrying) {
  // 100 ms backoff per retry, 150 ms total cap: the first retry's sleep
  // (100) fits, the second (100 more, 200 total) would overrun — so the
  // job stops after attempt 2 and reports capped, well before the
  // 10-attempt budget.
  int calls = 0;
  exec::RetryPolicy rp;
  rp.max_attempts = 10;
  rp.backoff_ms = 100.0;
  rp.backoff_factor = 1.0;
  rp.max_total_backoff_ms = 150.0;
  rp.sleep = false;  // cap accounting is independent of the host sleep
  const exec::RetryOutcome out = exec::run_with_retry(
      [&] {
        ++calls;
        throw std::bad_alloc();
      },
      rp);
  EXPECT_EQ(out.status, exec::JobStatus::kFailed);
  EXPECT_TRUE(out.backoff_capped);
  EXPECT_EQ(calls, 2);
}

TEST(RunWithRetry, BatchReportCountsBackoffCapped) {
  exec::RetryPolicy rp;
  rp.max_attempts = 10;
  rp.backoff_ms = 100.0;
  rp.backoff_factor = 1.0;
  rp.max_total_backoff_ms = 50.0;  // first retry already overruns
  rp.sleep = false;
  std::vector<std::function<void()>> jobs;
  jobs.push_back([] { throw std::bad_alloc(); });
  jobs.push_back([] {});
  const exec::BatchReport rep =
      exec::run_jobs_recover(std::move(jobs), 1, rp);
  EXPECT_EQ(rep.ok, 1u);
  EXPECT_EQ(rep.failed, 1u);
  EXPECT_EQ(rep.backoff_capped, 1u);
  EXPECT_NE(rep.summary().find("1 backoff-capped"), std::string::npos);
}

TEST(RunWithRetry, UncappedPolicyKeepsHistoricalSummary) {
  exec::RetryPolicy rp;
  rp.max_attempts = 2;
  rp.sleep = false;
  std::vector<std::function<void()>> jobs;
  jobs.push_back([] {});
  const exec::BatchReport rep =
      exec::run_jobs_recover(std::move(jobs), 1, rp);
  EXPECT_EQ(rep.backoff_capped, 0u);
  EXPECT_EQ(rep.summary().find("backoff-capped"), std::string::npos);
}

// ---------------------------------------------------------------------------
// serve::Json

TEST(ServeJson, ParseDumpRoundTrip) {
  const std::string text =
      R"({"b":[1,2.5,null,true],"a":"x\n\"y\"","c":{"n":-3}})";
  const Json v = Json::parse(text);
  // Keys come back sorted; parsing the dump yields an equal value.
  EXPECT_EQ(v.dump(),
            R"({"a":"x\n\"y\"","b":[1,2.5,null,true],"c":{"n":-3}})");
  EXPECT_EQ(Json::parse(v.dump()), v);
}

TEST(ServeJson, IntegersDumpWithoutExponent) {
  EXPECT_EQ(Json(1234567890).dump(), "1234567890");
  EXPECT_EQ(Json(std::uint64_t{50000000}).dump(), "50000000");
  EXPECT_EQ(Json(0.5).dump(), "0.5");
  EXPECT_EQ(Json(-2).dump(), "-2");
}

TEST(ServeJson, IntegerLexemesAreExact) {
  // 2^53 + 1 has no double; neither does 2^64 - 1. Both keep every digit.
  for (const char* text :
       {"9007199254740993", "9007199254740992", "9007199254740991",
        "18446744073709551615", "-9223372036854775808", "0", "-7"}) {
    EXPECT_EQ(Json::parse(text).dump(), text);
  }
  EXPECT_EQ(Json::parse("9007199254740993").as_u64(), 9007199254740993ull);
  EXPECT_EQ(Json::parse("18446744073709551615").as_u64(),
            18446744073709551615ull);
  EXPECT_NE(Json::parse("9007199254740993"), Json::parse("9007199254740992"));
  EXPECT_EQ(Json::parse("-0").dump(), "0");
  EXPECT_EQ(Json::parse("-5").as_u64(), std::nullopt);
  // Not integer lexemes, or too wide for 64 bits: doubles, as before.
  EXPECT_EQ(Json::parse("5.0").as_u64(), std::nullopt);
  EXPECT_EQ(Json::parse("5.0").dump(), "5");
  EXPECT_EQ(Json::parse("1e3").dump(), "1000");
  EXPECT_EQ(Json::parse("18446744073709551616").dump(),
            "1.8446744073709552e+19");
  EXPECT_EQ(Json::parse("9007199254740993.0").dump(),
            "9007199254740992");
  // A double and an exact integer of the same value compare equal.
  EXPECT_EQ(Json::parse("3"), Json(3.0));
}

TEST(ServeJson, StrictParsing) {
  EXPECT_THROW(Json::parse("{} trailing"), JsonError);
  EXPECT_THROW(Json::parse(R"({"a":1,"a":2})"), JsonError);
  EXPECT_THROW(Json::parse("{\"a\":}"), JsonError);
  EXPECT_THROW(Json::parse("01x"), JsonError);
  EXPECT_THROW(Json::parse("1e"), JsonError);
  EXPECT_THROW(Json::parse("-"), JsonError);
  EXPECT_THROW(Json::parse(""), JsonError);
  std::string deep;
  for (int i = 0; i < 64; ++i) deep += "[";
  EXPECT_THROW(Json::parse(deep), JsonError);
}

// ---------------------------------------------------------------------------
// serve protocol

TEST(ServeProtocol, CanonicalizationMakesEquivalentRequestsShareKeys) {
  // Field order scrambled, defaults spelled out vs omitted, id/deadline
  // differing: all the same canonical body, all one cache key.
  const Request a = parse_request(
      R"({"type":"simulate","id":1,"machine":"tiny_8t","seed":9})");
  const Request b = parse_request(
      R"({"seed":9,"deadline_ms":5000,"machine":"tiny_8t","id":"two",)"
      R"("type":"simulate","protocol":"mesif","threads":8,"ops":64})");
  EXPECT_EQ(a.body.dump(), b.body.dump());
  EXPECT_EQ(cache_key(a), cache_key(b));
  const Request c = parse_request(
      R"({"type":"simulate","machine":"tiny_8t","seed":10})");
  EXPECT_NE(cache_key(a), cache_key(c));
}

TEST(ServeProtocol, SeedsBeyondTwoToThe53AreDistinctRequests) {
  const auto simulate = [](const std::string& seed) {
    return parse_request(R"({"type":"simulate","machine":"tiny_8t",)"
                         R"("threads":2,"ops":8,"seed":)" + seed + "}");
  };
  const Request a = simulate("9007199254740993");
  const Request b = simulate("9007199254740992");
  EXPECT_EQ(a.seed, 9007199254740993ull);
  EXPECT_EQ(b.seed, 9007199254740992ull);
  EXPECT_NE(a.body.dump(), b.body.dump());
  EXPECT_NE(cache_key(a), cache_key(b));
  EXPECT_EQ(simulate("18446744073709551615").seed, 18446744073709551615ull);
  // Integral doubles still read as before; negative and 2^64 are out of
  // range.
  EXPECT_EQ(simulate("5.0").seed, 5u);
  EXPECT_EQ(cache_key(simulate("5.0")), cache_key(simulate("5")));
  for (const char* bad : {"-1", "18446744073709551616", "1.5"}) {
    try {
      simulate(bad);
      ADD_FAILURE() << "seed " << bad << " was accepted";
    } catch (const ServeError& e) {
      EXPECT_EQ(e.code(), ErrorCode::kInvalidRequest) << bad;
    }
  }
}

TEST(ServeProtocol, ValidationTaxonomy) {
  auto code_of = [](const std::string& line) {
    try {
      parse_request(line);
      return std::string("ok");
    } catch (const ServeError& e) {
      return std::string(to_string(e.code()));
    }
  };
  EXPECT_EQ(code_of("not json"), "bad_json");
  EXPECT_EQ(code_of("[1,2,3]"), "bad_json");
  EXPECT_EQ(code_of(R"({"type":"simulate","bogus":1})"), "invalid_request");
  EXPECT_EQ(code_of(R"({"no_type":true})"), "invalid_request");
  EXPECT_EQ(code_of(R"({"type":"launch_missiles"})"), "invalid_request");
  EXPECT_EQ(code_of(R"({"type":"simulate","threads":-2})"),
            "invalid_request");
  EXPECT_EQ(code_of(R"({"type":"simulate","threads":2.5})"),
            "invalid_request");
  EXPECT_EQ(code_of(R"({"type":"fit","xs":[1],"ys":[1]})"),
            "invalid_request");
  EXPECT_EQ(code_of(R"({"type":"fit","xs":[1,2],"ys":[1,"a"]})"),
            "invalid_request");
  EXPECT_EQ(code_of(R"({"type":"simulate","machine":"knl_9999t"})"),
            "bad_config");
  EXPECT_EQ(code_of(R"({"type":"predict","cluster":"OCTO"})"),
            "bad_config");
  EXPECT_EQ(code_of(R"({"type":"predict","collective":"gather"})"),
            "invalid_request");
  EXPECT_EQ(code_of(R"({"type":"health"})"), "ok");
  EXPECT_EQ(code_of(R"({"type":"predict"})"), "ok");
}

TEST(ServeProtocol, ReplyShapes) {
  EXPECT_EQ(ok_reply(Json(5), Json::parse(R"({"x":1})")),
            R"({"id":5,"ok":true,"result":{"x":1}})");
  EXPECT_EQ(error_reply(Json("a"), ErrorCode::kOverloaded, "full", 25),
            R"({"id":"a","ok":false,"error":{"code":"overloaded",)"
            R"("message":"full","retry_after_ms":25}})");
  EXPECT_EQ(error_reply(Json(), ErrorCode::kBadJson, "nope"),
            R"({"id":null,"ok":false,"error":{"code":"bad_json",)"
            R"("message":"nope"}})");
}

// Seeded mutants of valid request lines: bit flips, truncations, splices of
// two lines, and JSON-aware swaps of one value (or one array element, or a
// new unknown key) for a wrong type or an edge-case number. Each mutant
// either parses to a Request whose canonical body parses back to the same
// body and cache key, or throws ServeError with one of the three
// validation codes. Any other exception (or, in the sanitizer build, any
// UB) fails.
TEST(ServeProtocol, ParseRequestSurvivesMutatedLines) {
  const std::vector<std::string> valid = {
      R"({"id":0,"type":"health"})",
      R"({"id":1,"type":"fit","xs":[0,1,2,3],"ys":[1,3,5,7]})",
      R"({"id":"f","type":"fit","xs":[0.5,-1,1e6],"ys":[2,2,-3.25]})",
      R"({"type":"simulate","id":1,"machine":"tiny_8t","seed":9})",
      R"({"seed":9,"deadline_ms":5000,"machine":"tiny_8t","id":"two",)"
      R"("type":"simulate","protocol":"mesif","threads":8,"ops":64})",
      R"({"id":7,"type":"simulate","machine":"mini_16t","cluster":"SNC4",)"
      R"("memory":"cache","protocol":"mosi","threads":4,"ops":24,)"
      R"("seed":7001,"fault_severity":2,"max_steps":5000})",
      R"({"id":3,"type":"predict","machine":"tiny_8t","protocol":"mesi",)"
      R"("collective":"reduce","threads":8})",
      R"({"id":null,"type":"predict","machine":"knl_38t","cluster":"A2A",)"
      R"("memory":"flat","collective":"allreduce","threads":64,)"
      R"("schedule":"compact","buffer":"MCDRAM","deadline_ms":250})",
      // Seeds at 2^53 - 1, 2^53 + 1 and 2^64 - 1: exact, not rounded.
      R"({"type":"simulate","machine":"tiny_8t","seed":9007199254740991})",
      R"({"type":"simulate","machine":"tiny_8t","seed":9007199254740993})",
      R"({"type":"simulate","machine":"tiny_8t","seed":18446744073709551615})",
  };
  const std::vector<std::string> tokens = {
      R"("x")", "true", "false", "null", "[]", "[1,2]", "{}", R"({"a":1})",
      "0", "-0", "1", "-1", "2.5", "-2", "4096", "4097", "100000", "2147483648",
      "9007199254740993", "18446744073709551615", "18446744073709551616",
      "1e300", "-1e300", "1e999", "-1e999", "1e-320", R"("")", R"("QUAD")",
      R"("mesi")", R"("tiny_8t")", R"("simulate")", R"("compact")"};
  const std::vector<std::string> unknown_keys = {"bogus", "thread", "Seed",
                                                 ""};

  std::uint64_t state = 0x2545f4914f6cdd1dull;
  const auto next = [&state](std::uint64_t bound) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return bound == 0 ? 0 : (state >> 33) % bound;
  };
  // The JSON-aware swap: the value goes in as a placeholder string that is
  // then replaced by the raw token, so tokens a Json double cannot hold
  // (1e999, 2^64) reach the parser as text.
  const auto swap_value = [&](const std::string& line) {
    Json doc;
    try {
      doc = Json::parse(line);
    } catch (const JsonError&) {
      return line;
    }
    if (!doc.is_object()) return line;
    const std::string placeholder = "@@value@@";
    const auto& items = doc.items();
    if (items.empty() || next(4) == 0) {
      doc.set(unknown_keys[next(unknown_keys.size())], placeholder);
    } else {
      auto it = items.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(next(items.size())));
      const std::string key = it->first;
      if (it->second.is_array() && !it->second.elements().empty() &&
          next(2) == 0) {
        Json arr = Json::array();
        const std::size_t pick = next(it->second.elements().size());
        for (std::size_t e = 0; e < it->second.elements().size(); ++e) {
          arr.push(e == pick ? Json(placeholder) : it->second.elements()[e]);
        }
        doc.set(key, std::move(arr));
      } else {
        doc.set(key, placeholder);
      }
    }
    std::string text = doc.dump();
    const std::string quoted = '"' + placeholder + '"';
    text.replace(text.find(quoted), quoted.size(), tokens[next(tokens.size())]);
    return text;
  };

  int parsed = 0;
  int rejected = 0;
  std::map<std::uint64_t, std::string> body_of_key;
  for (int i = 0; i < 4000; ++i) {
    std::string line = valid[next(valid.size())];
    const int nmut = 1 + static_cast<int>(next(2));
    for (int k = 0; k < nmut; ++k) {
      switch (next(6)) {
        case 0:  // bit flip
          if (!line.empty()) {
            line[next(line.size())] ^= static_cast<char>(1u << next(8));
          }
          break;
        case 1:  // truncation
          line.resize(next(line.size() + 1));
          break;
        case 2: {  // splice: a prefix of this line, a suffix of another
          const std::string& other = valid[next(valid.size())];
          line = line.substr(0, next(line.size() + 1)) +
                 other.substr(next(other.size() + 1));
          break;
        }
        default:  // half of all mutations
          line = swap_value(line);
          break;
      }
    }

    Request req;
    try {
      req = parse_request(line);
    } catch (const ServeError& e) {
      const ErrorCode c = e.code();
      EXPECT_TRUE(c == ErrorCode::kBadJson || c == ErrorCode::kInvalidRequest ||
                  c == ErrorCode::kBadConfig)
          << "mutant " << i << " got " << to_string(c) << ": " << line;
      ++rejected;
      continue;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << i << " threw " << e.what() << ": "
                    << line;
      continue;
    }
    ++parsed;
    const std::string canonical = req.body.dump();
    // Distinct canonical bodies (a seed off by one above 2^53 included)
    // never share a cache key.
    const auto [it, fresh] = body_of_key.emplace(cache_key(req), canonical);
    EXPECT_EQ(it->second, canonical) << "mutant " << i << ": " << line;
    try {
      const Request again = parse_request(canonical);
      EXPECT_EQ(again.body.dump(), canonical) << "mutant " << i << ": "
                                              << line;
      EXPECT_EQ(cache_key(again), cache_key(req))
          << "mutant " << i << ": " << line;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << i << "'s canonical body " << canonical
                    << " does not parse back: " << e.what() << "\n"
                    << "mutant: " << line;
    }
  }
  EXPECT_GT(parsed, 100);
  EXPECT_GT(rejected, 100);
}

// ---------------------------------------------------------------------------
// serve::ResultCache

TEST(ResultCache, MissStoreHit) {
  ResultCache cache(make_temp_dir() + "/cache");
  std::string got, reason;
  EXPECT_FALSE(cache.lookup(42, &got, &reason));
  cache.store(42, R"({"v":1})");
  ASSERT_TRUE(cache.lookup(42, &got, &reason));
  EXPECT_EQ(got, R"({"v":1})");
  EXPECT_TRUE(reason.empty());
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.corrupt, 0u);
}

TEST(ResultCache, CorruptEntryIsQuarantinedNeverServed) {
  const std::string dir = make_temp_dir() + "/cache";
  ResultCache cache(dir);
  cache.store(7, R"({"v":"good"})");
  // Corrupt the landed bytes out-of-band (bit rot).
  {
    std::fstream f(cache.entry_path(7),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(21);
    f.put('X');
  }
  std::string got, reason;
  EXPECT_FALSE(cache.lookup(7, &got, &reason));
  EXPECT_NE(reason.find("corrupt"), std::string::npos);
  EXPECT_EQ(cache.stats().corrupt, 1u);
  // Quarantined aside with a structured reason file.
  EXPECT_EQ(count_dir_entries(dir + "/quarantine", ".bad"), 1);
  EXPECT_EQ(count_dir_entries(dir + "/quarantine", ".reason"), 1);
  // The slot is reusable: recompute, store, serve.
  cache.store(7, R"({"v":"good"})");
  ASSERT_TRUE(cache.lookup(7, &got, &reason));
  EXPECT_EQ(got, R"({"v":"good"})");
}

TEST(ResultCache, TruncatedEntryIsQuarantined) {
  const std::string dir = make_temp_dir() + "/cache";
  ResultCache cache(dir);
  cache.store_truncated(9, R"({"v":"torn-result-payload"})", 15);
  std::string got, reason;
  EXPECT_FALSE(cache.lookup(9, &got, &reason));
  EXPECT_FALSE(reason.empty());
  EXPECT_EQ(cache.stats().corrupt, 1u);
  EXPECT_EQ(count_dir_entries(dir + "/quarantine", ".reason"), 1);
}

TEST(ResultCache, VersionSkewIsRejectedWithStructuredReason) {
  const std::string dir = make_temp_dir() + "/cache";
  ResultCache cache(dir);
  cache.store(11, "{}");
  // Overwrite with an envelope sealed under a different version.
  const std::string payload = "{}";
  const std::vector<std::uint8_t> other = common::seal(
      kServeFormatVersion + 1,
      std::vector<std::uint8_t>(payload.begin(), payload.end()));
  common::atomic_write_file(cache.entry_path(11), other);
  std::string got, reason;
  EXPECT_FALSE(cache.lookup(11, &got, &reason));
  EXPECT_NE(reason.find("version-mismatch"), std::string::npos);
}

// Whether thread `tid` of this process is in an interruptible sleep (state
// 'S' in /proc/self/task/<tid>/stat: blocked in a system call).
bool thread_sleeping(pid_t tid) {
  std::ifstream in("/proc/self/task/" + std::to_string(tid) + "/stat");
  std::string stat;
  std::getline(in, stat);
  // "pid (comm) S ...": the state follows the last ')'.
  const std::size_t paren = stat.rfind(')');
  return paren != std::string::npos && paren + 2 < stat.size() &&
         stat[paren + 2] == 'S';
}

TEST(ResultCache, BlockedReadDoesNotStallOtherKeys) {
  // Key A's entry is a FIFO, so a lookup of A blocks in open(2) until a
  // writer appears. Meanwhile a lookup and a store of key B on another
  // thread must complete: no disk I/O runs under the cache's lock.
  const std::string dir = make_temp_dir() + "/cache";
  ResultCache cache(dir);
  const std::uint64_t a = 0x1000000000000001ull;
  const std::uint64_t b = 0x2000000000000002ull;
  const std::string fifo = cache.entry_path(a);
  ASSERT_EQ(::mkdir(fifo.substr(0, fifo.find_last_of('/')).c_str(), 0755), 0);
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0644), 0);

  std::string a_reason;
  std::atomic<pid_t> a_tid{0};
  auto lookup_a = std::async(std::launch::async, [&] {
    a_tid = static_cast<pid_t>(::syscall(SYS_gettid));
    std::string got;
    return cache.lookup(a, &got, &a_reason);
  });
  // Start B only once A's thread sleeps in the kernel, i.e. in its open(2)
  // of the FIFO: the one blocking call of a lookup.
  while (a_tid == 0 || !thread_sleeping(a_tid)) std::this_thread::yield();
  auto other_key = std::async(std::launch::async, [&] {
    std::string got, reason;
    const bool before = cache.lookup(b, &got, &reason);
    cache.store(b, R"({"v":"b"})");
    return !before && cache.lookup(b, &got, &reason) && got == R"({"v":"b"})";
  });
  // The bound only turns a regression into a failure instead of a hang.
  const bool b_done = other_key.wait_for(std::chrono::seconds(20)) ==
                      std::future_status::ready;
  EXPECT_TRUE(b_done) << "key B stalled behind the blocked read of key A";

  // Release A: open the write end (which unblocks the reader's open) and
  // write bytes that are no sealed entry. SIGPIPE is ignored meanwhile, in
  // case a reader stops reading before the write lands.
  const auto old_sigpipe = std::signal(SIGPIPE, SIG_IGN);
  {
    const int fd = ::open(fifo.c_str(), O_WRONLY);
    ASSERT_GE(fd, 0);
    const std::string junk = "this is not a sealed cache entry";
    EXPECT_GT(::write(fd, junk.data(), junk.size()), 0);
    ::close(fd);
  }
  std::signal(SIGPIPE, old_sigpipe);
  EXPECT_FALSE(lookup_a.get());
  EXPECT_TRUE(other_key.get());
  // A is quarantined as before: moved aside with its reason.
  EXPECT_EQ(a_reason.rfind("bad-magic", 0), 0u) << a_reason;
  EXPECT_EQ(cache.stats().corrupt, 1u);
  EXPECT_EQ(::access(fifo.c_str(), F_OK), -1);
  EXPECT_EQ(::access(cache.quarantine_path(a).c_str(), F_OK), 0);
  EXPECT_EQ(cache.stats().stores, 1u);
}

TEST(ResultCache, QuarantineLeavesAnEntryReplacedAfterTheRead) {
  // A lookup that read corrupt bytes must not move aside the good entry a
  // concurrent store published after that read. The store lands while the
  // lookup is blocked reading key A's FIFO: the FIFO's bytes are corrupt,
  // but the path then names the stored entry.
  const std::string dir = make_temp_dir() + "/cache";
  ResultCache cache(dir);
  const std::uint64_t a = 0x3000000000000003ull;
  const std::string fifo = cache.entry_path(a);
  ASSERT_EQ(::mkdir(fifo.substr(0, fifo.find_last_of('/')).c_str(), 0755), 0);
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0644), 0);
  // Opening the write end non-blocking fails until a reader has the FIFO
  // open, so the loop below ends exactly when the lookup holds it.
  auto lookup_a = std::async(std::launch::async, [&] {
    std::string got, reason;
    return cache.lookup(a, &got, &reason);
  });
  int fd = -1;
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while ((fd = ::open(fifo.c_str(), O_WRONLY | O_NONBLOCK)) < 0 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::yield();
  }
  ASSERT_GE(fd, 0);
  cache.store(a, R"({"v":"fresh"})");  // renames a new file over the FIFO
  ::close(fd);                         // EOF: the lookup read 0 bytes
  EXPECT_FALSE(lookup_a.get());
  EXPECT_EQ(cache.stats().corrupt, 0u);
  EXPECT_EQ(::access(cache.quarantine_path(a).c_str(), F_OK), -1);
  std::string got, reason;
  ASSERT_TRUE(cache.lookup(a, &got, &reason));
  EXPECT_EQ(got, R"({"v":"fresh"})");
}

// ---------------------------------------------------------------------------
// serve::Server — robustness contract

ServerOptions test_options(const std::string& dir) {
  ServerOptions so;
  so.cache_dir = dir;
  so.workers = 2;
  so.queue_limit = 8;
  so.retry.sleep = false;
  return so;
}

std::string simulate_line(const std::string& machine,
                          const std::string& protocol, int id,
                          std::uint64_t seed) {
  Json r = Json::object();
  r.set("id", id);
  r.set("type", "simulate");
  r.set("machine", machine);
  r.set("protocol", protocol);
  r.set("threads", 4);
  r.set("ops", 24);
  r.set("seed", seed);
  return r.dump();
}

TEST(Server, EveryRequestGetsExactlyOneReplyInOrder) {
  Server server(test_options(make_temp_dir() + "/cache"));
  server.submit(R"({"id":0,"type":"health"})");
  server.submit(R"({"id":1,"type":"fit","xs":[0,1,2,3],"ys":[1,3,5,7]})");
  server.submit("garbage!");
  server.submit(simulate_line("tiny_8t", "mesif", 3, 5));
  server.submit(R"({"id":4,"type":"fit","xs":[0,1],"ys":[2,2]})");
  const std::vector<std::string> lines = drain_lines(server);
  ASSERT_EQ(lines.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    const Json doc = Json::parse(lines[static_cast<std::size_t>(i)]);
    if (i == 2) {
      EXPECT_TRUE(doc.find("id")->is_null());
      EXPECT_EQ(error_code_of(lines[2]), "bad_json");
    } else {
      EXPECT_EQ(doc.find("id")->as_number(), i);
      EXPECT_TRUE(doc.find("ok")->as_bool()) << lines[static_cast<std::size_t>(i)];
    }
  }
  // The fit answer is the exact regression.
  const Json fit = Json::parse(lines[1]);
  EXPECT_DOUBLE_EQ(fit.find("result")->find("alpha")->as_number(), 1.0);
  EXPECT_DOUBLE_EQ(fit.find("result")->find("beta")->as_number(), 2.0);
  const ServeCounters c = server.counters();
  EXPECT_EQ(c.requests, 5u);
  EXPECT_EQ(c.errors, 1u);
}

TEST(Server, SeedsBeyondTwoToThe53SimulateDistinctly) {
  Server server(test_options(make_temp_dir() + "/cache"));
  server.submit(simulate_line("tiny_8t", "mesif", 1, 9007199254740993ull));
  server.submit(simulate_line("tiny_8t", "mesif", 2, 9007199254740992ull));
  const std::vector<std::string> lines = drain_lines(server);
  ASSERT_EQ(lines.size(), 2u);
  const Json a = Json::parse(lines[0]);
  const Json b = Json::parse(lines[1]);
  ASSERT_TRUE(a.find("ok")->as_bool()) << lines[0];
  ASSERT_TRUE(b.find("ok")->as_bool()) << lines[1];
  EXPECT_NE(a.find("result")->find("digest")->as_string(),
            b.find("result")->find("digest")->as_string());
  EXPECT_EQ(server.counters().cache_miss, 2u);
}

TEST(Server, WarmCacheReplyIsByteIdenticalToColdCompute) {
  const std::string dir = make_temp_dir() + "/cache";
  std::string cold, warm_same_process, warm_restart;
  const std::string line = simulate_line("tiny_8t", "mesif", 7, 123);
  {
    Server server(test_options(dir));
    server.submit(line);
    cold = drain_lines(server).at(0);  // wait for the store to land
    server.submit(line);  // second submission: in-process cache hit
    warm_same_process = drain_lines(server).at(0);
    EXPECT_EQ(server.counters().cache_hit, 1u);
  }
  {
    Server server(test_options(dir));  // restart over the same cache
    server.submit(line);
    warm_restart = drain_lines(server).at(0);
    EXPECT_EQ(server.counters().cache_hit, 1u);
  }
  EXPECT_EQ(cold, warm_same_process);
  EXPECT_EQ(cold, warm_restart);
  EXPECT_EQ(error_code_of(cold), "");
}

TEST(Server, TornWritesAreQuarantinedAndRecomputedIdentically) {
  // Satellite (c) core: across >= 3 presets x all 3 protocols, a server
  // whose every cache write lands torn must still answer correctly, and a
  // restart over the damaged cache must quarantine each torn entry and
  // recompute byte-identical answers.
  const std::string presets[] = {"tiny_8t", "mini_16t", "tall_24t"};
  const std::string protocols[] = {"mesif", "mesi", "mosi"};
  int id = 0;
  for (const std::string& m : presets) {
    for (const std::string& p : protocols) {
      const std::string line = simulate_line(m, p, id, 77 + id);
      ++id;

      const std::string clean_dir = make_temp_dir() + "/cache";
      std::string cold;
      {
        Server server(test_options(clean_dir));
        server.submit(line);
        cold = drain_lines(server).at(0);
      }
      ASSERT_EQ(error_code_of(cold), "") << cold;

      ServerOptions torn = test_options(make_temp_dir() + "/cache");
      torn.chaos.seed = 99;
      torn.chaos.truncate_prob = 1.0;  // every write torn
      std::string under_chaos, recomputed, rewarmed;
      {
        Server server(torn);
        server.submit(line);
        under_chaos = drain_lines(server).at(0);
      }
      {
        ServerOptions clean = torn;
        clean.chaos = ChaosOptions{};
        Server server(clean);  // restart over the torn cache
        server.submit(line);
        recomputed = drain_lines(server).at(0);
        EXPECT_EQ(server.counters().cache_corrupt, 1u) << m << "/" << p;
        server.submit(line);  // now a clean hit
        rewarmed = drain_lines(server).at(0);
        EXPECT_EQ(server.counters().cache_hit, 1u);
        EXPECT_GE(count_dir_entries(torn.cache_dir + "/quarantine",
                                    ".reason"),
                  1);
      }
      EXPECT_EQ(cold, under_chaos) << m << "/" << p;
      EXPECT_EQ(cold, recomputed) << m << "/" << p;
      EXPECT_EQ(cold, rewarmed) << m << "/" << p;
    }
  }
}

TEST(Server, StepBudgetTripsDeadlineNotAWedgedWorker) {
  Server server(test_options(make_temp_dir() + "/cache"));
  Json r = Json::object();
  r.set("id", 1);
  r.set("type", "simulate");
  r.set("machine", "tiny_8t");
  r.set("threads", 4);
  r.set("ops", 64);
  r.set("max_steps", 50);  // far below what the schedule needs
  server.submit(r.dump());
  const std::string reply = drain_lines(server).at(0);
  EXPECT_EQ(error_code_of(reply), "deadline_exceeded");
  EXPECT_EQ(server.counters().deadline, 1u);
}

TEST(Server, ExpiredWallDeadlineIsRejectedBeforeExecution) {
  ServerOptions so = test_options(make_temp_dir() + "/cache");
  so.default_deadline_ms = 1e-6;  // expires before any worker can start
  Server server(so);
  server.submit(simulate_line("tiny_8t", "mesif", 1, 555));
  const std::string reply = drain_lines(server).at(0);
  EXPECT_EQ(error_code_of(reply), "deadline_exceeded");
}

TEST(Server, OverloadShedsExpensiveButServesCheap) {
  ServerOptions so = test_options(make_temp_dir() + "/cache");
  so.workers = 1;
  so.queue_limit = 1;
  Server server(so);
  // Distinct seeds: no cache hits, so all four want simulation time.
  for (int i = 0; i < 4; ++i) {
    server.submit(simulate_line("tiny_8t", "mesif", i, 9000 + i));
  }
  // Cheap requests keep succeeding while the queue is saturated.
  server.submit(R"({"id":90,"type":"health"})");
  server.submit(R"({"id":91,"type":"fit","xs":[0,1],"ys":[0,1]})");
  const auto lines = drain_lines(server);
  ASSERT_EQ(lines.size(), 6u);
  int ok = 0, shed = 0;
  for (int i = 0; i < 4; ++i) {
    const std::string code = error_code_of(lines[static_cast<std::size_t>(i)]);
    if (code.empty()) {
      ++ok;
    } else {
      ASSERT_EQ(code, "overloaded") << lines[static_cast<std::size_t>(i)];
      const Json doc = Json::parse(lines[static_cast<std::size_t>(i)]);
      EXPECT_GT(doc.find("error")->find("retry_after_ms")->as_number(), 0);
      ++shed;
    }
  }
  EXPECT_GE(ok, 1);   // the admitted request completed
  EXPECT_GE(shed, 1); // at least one was shed while the slot was busy
  EXPECT_EQ(error_code_of(lines[4]), "");
  EXPECT_EQ(error_code_of(lines[5]), "");
  const ServeCounters c = server.counters();
  EXPECT_EQ(c.shed, static_cast<std::uint64_t>(shed));
  EXPECT_EQ(c.requests, 6u);
}

TEST(Server, ChaosWorkerKillIsAbsorbedByRetry) {
  // Find a chaos seed whose first attempt for request #1 is killed but
  // whose second attempt survives — then the request must still succeed,
  // with exactly one retry on the books.
  ChaosOptions probe;
  probe.kill_worker_prob = 0.5;
  std::uint64_t seed = 0;
  for (std::uint64_t s = 1; s < 200; ++s) {
    probe.seed = s;
    const Chaos c(probe);
    if (c.roll(1, 1, "kill-worker", 0.5) &&
        !c.roll(1, 2, "kill-worker", 0.5)) {
      seed = s;
      break;
    }
  }
  ASSERT_NE(seed, 0u);

  const std::string line = simulate_line("tiny_8t", "mesif", 1, 321);
  const std::string dir_a = make_temp_dir() + "/cache";
  std::string cold;
  {
    Server server(test_options(dir_a));
    server.submit(line);
    cold = drain_lines(server).at(0);
  }
  ServerOptions so = test_options(make_temp_dir() + "/cache");
  so.chaos.seed = seed;
  so.chaos.kill_worker_prob = 0.5;
  Server server(so);
  server.submit(line);
  const std::string reply = drain_lines(server).at(0);
  EXPECT_EQ(reply, cold);  // the retry reproduced the first attempt exactly
  const ServeCounters c = server.counters();
  EXPECT_EQ(c.retries, 1u);
}

TEST(Server, PersistentWorkerKillEndsInStructuredInternalError) {
  ServerOptions so = test_options(make_temp_dir() + "/cache");
  so.chaos.seed = 5;
  so.chaos.kill_worker_prob = 1.0;  // every attempt dies
  Server server(so);
  server.submit(simulate_line("tiny_8t", "mesif", 1, 42));
  const std::string reply = drain_lines(server).at(0);
  EXPECT_EQ(error_code_of(reply), "internal");
  const ServeCounters c = server.counters();
  EXPECT_EQ(c.retries,
            static_cast<std::uint64_t>(so.retry.max_attempts - 1));
}

TEST(Server, PredictionsAreCachedAndModelSurvivesRestart) {
  const std::string dir = make_temp_dir() + "/cache";
  Json r = Json::object();
  r.set("id", 1);
  r.set("type", "predict");
  r.set("machine", "tiny_8t");
  r.set("collective", "broadcast");
  r.set("threads", 8);
  const std::string line_a = r.dump();
  r.set("id", 2);
  r.set("collective", "allreduce");
  r.set("threads", 12);
  const std::string line_b = r.dump();

  std::string cold_a, cold_b;
  {
    Server server(test_options(dir));
    server.submit(line_a);  // cold: fits the capability model
    server.submit(line_b);  // warm model: cheap path
    const auto lines = drain_lines(server);
    cold_a = lines.at(0);
    cold_b = lines.at(1);
    ASSERT_EQ(error_code_of(cold_a), "") << cold_a;
    const Json doc = Json::parse(cold_a);
    EXPECT_GT(doc.find("result")->find("best_ns")->as_number(), 0);
    EXPECT_GE(doc.find("result")->find("worst_ns")->as_number(),
              doc.find("result")->find("best_ns")->as_number());
  }
  {
    // Restart: line_a hits the result cache; a *new* prediction for the
    // same machine must reuse the persisted model and agree with a fresh
    // fit elsewhere.
    Server server(test_options(dir));
    server.submit(line_a);
    EXPECT_EQ(drain_lines(server).at(0), cold_a);
    EXPECT_EQ(server.counters().cache_hit, 1u);
  }
  {
    Server fresh(test_options(make_temp_dir() + "/cache"));
    fresh.submit(line_b);
    EXPECT_EQ(drain_lines(fresh).at(0), cold_b);
  }
}

std::string predict_line(int id, const std::string& machine,
                         const std::string& protocol,
                         const std::string& collective, int threads) {
  Json r = Json::object();
  r.set("id", id);
  r.set("type", "predict");
  r.set("machine", machine);
  r.set("protocol", protocol);
  r.set("collective", collective);
  r.set("threads", threads);
  return r.dump();
}

// A cold pass (simulates, and predicts whose models must be fitted) is the
// same byte stream at one and two workers: replies keep submission order,
// and a fit spreads its suite cells over the workers without changing the
// fitted model.
TEST(Server, ColdMixIsByteIdenticalAtOneAndTwoWorkers) {
  const std::vector<std::string> mix = {
      predict_line(0, "tiny_8t", "mesif", "broadcast", 8),
      simulate_line("tiny_8t", "mesif", 1, 11),
      predict_line(2, "mini_16t", "mosi", "reduce", 12),
      simulate_line("mini_16t", "mosi", 3, 12),
      predict_line(4, "tiny_8t", "mesif", "allreduce", 6),
      simulate_line("tiny_8t", "mesi", 5, 13),
      predict_line(6, "mini_16t", "mosi", "barrier", 16),
  };
  std::vector<std::vector<std::string>> replies;
  for (int workers : {1, 2}) {
    ServerOptions so = test_options(make_temp_dir() + "/cache");
    so.workers = workers;
    Server server(so);
    for (const std::string& line : mix) server.submit(line);
    replies.push_back(drain_lines(server));
  }
  ASSERT_EQ(replies[0].size(), mix.size());
  for (const std::string& reply : replies[0]) {
    EXPECT_EQ(error_code_of(reply), "") << reply;
  }
  EXPECT_EQ(replies[0], replies[1]);
}

}  // namespace

namespace capmem::serve {
/// Holds a Server's fit lock: the state of a worker in mid-fit, pinned for
/// as long as a test needs it.
struct ServerTestPeer {
  static std::mutex& fit_mu(Server& s) { return s.fit_mu_; }
};
}  // namespace capmem::serve

namespace {

// While a fit runs, submit() must keep answering predicts whose model is
// already fitted inline: it consults the fitted models, never the fit.
TEST(Server, FitInProgressDoesNotStallInlinePredicts) {
  Server server(test_options(make_temp_dir() + "/cache"));
  server.submit(predict_line(0, "tiny_8t", "mesif", "broadcast", 8));
  ASSERT_EQ(error_code_of(drain_lines(server).at(0)), "");

  std::unique_lock<std::mutex> fitting(ServerTestPeer::fit_mu(server));
  // Cold model: admitted, and its worker waits at the fit lock.
  server.submit(predict_line(1, "mini_16t", "mesif", "broadcast", 8));
  // Fitted model, uncached result: the inline path.
  auto inline_predict = std::async(std::launch::async, [&] {
    server.submit(predict_line(2, "tiny_8t", "mesif", "allreduce", 12));
  });
  const bool answered = inline_predict.wait_for(std::chrono::seconds(60)) ==
                        std::future_status::ready;
  const int admitted = server.queue_depth();
  fitting.unlock();
  inline_predict.get();
  EXPECT_TRUE(answered) << "submit() waited for a fit it does not need";
  EXPECT_EQ(admitted, 1) << "only the cold predict needs a worker";

  const std::vector<std::string> lines = drain_lines(server);
  ASSERT_EQ(lines.size(), 2u);
  for (const std::string& reply : lines) {
    EXPECT_EQ(error_code_of(reply), "") << reply;
  }
}

TEST(Server, HealthReportsCountersAndStatus) {
  Server server(test_options(make_temp_dir() + "/cache"));
  server.submit(R"({"id":1,"type":"health"})");
  const Json doc = Json::parse(drain_lines(server).at(0));
  const Json* res = doc.find("result");
  ASSERT_NE(res, nullptr);
  EXPECT_EQ(res->find("status")->as_string(), "ok");
  EXPECT_EQ(res->find("counters")->find("requests")->as_number(), 1);
}

// ---------------------------------------------------------------------------
// The real daemon binary: hard kill mid-cache-write, restart, recover.

TEST(ServeBinary, ChaosKillRestartRecoversByteIdentically) {
  const std::string dir = make_temp_dir();
  const std::string cache = dir + "/cache";
  const std::string req_path = dir + "/requests.jsonl";
  {
    std::ofstream req(req_path);
    for (int i = 0; i < 4; ++i) {
      req << simulate_line("tiny_8t", "mesif", i, 4000 + i) << "\n";
    }
  }
  const std::string bin = CAPMEM_SERVE_BIN;
  const std::string common_args =
      " --requests " + req_path + " --workers 1 --queue-limit 8";

  // Pass 1: every write torn, hard _exit(137) after the second write.
  const std::string kill_cmd =
      bin + common_args + " --cache-dir " + cache +
      " --replies " + dir + "/r1.jsonl" +
      " --chaos 7 --chaos-truncate 1.0 --chaos-kill-writes 2" +
      " --chaos-kill-worker 0 --chaos-delay 0 2>/dev/null";
  const int rc1 = std::system(kill_cmd.c_str());
  ASSERT_TRUE(WIFEXITED(rc1));
  EXPECT_EQ(WEXITSTATUS(rc1), 137);

  // Pass 2 (restart, chaos off, same cache): torn entries must be
  // quarantined and recomputed; the full reply stream comes back.
  const std::string restart_cmd =
      bin + common_args + " --cache-dir " + cache + " --replies " + dir +
      "/r2.jsonl 2>/dev/null";
  const int rc2 = std::system(restart_cmd.c_str());
  ASSERT_TRUE(WIFEXITED(rc2));
  EXPECT_EQ(WEXITSTATUS(rc2), 0);

  // Pass 3 (fresh cache): the cold-recomputation reference.
  const std::string cold_cmd =
      bin + common_args + " --cache-dir " + dir + "/cache_cold" +
      " --replies " + dir + "/r3.jsonl 2>/dev/null";
  const int rc3 = std::system(cold_cmd.c_str());
  ASSERT_TRUE(WIFEXITED(rc3));
  EXPECT_EQ(WEXITSTATUS(rc3), 0);

  const std::vector<std::string> after_restart = read_lines(dir + "/r2.jsonl");
  const std::vector<std::string> cold = read_lines(dir + "/r3.jsonl");
  ASSERT_EQ(after_restart.size(), 4u);
  EXPECT_EQ(after_restart, cold);
  for (const std::string& reply : after_restart) {
    EXPECT_EQ(error_code_of(reply), "") << reply;
  }
  // The kill left detectably torn entries, now quarantined with reasons.
  EXPECT_GE(count_dir_entries(cache + "/quarantine", ".reason"), 1);
}

}  // namespace
