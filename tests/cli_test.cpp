// Integration test driving the batmap_cli binary end to end (gen -> build ->
// info -> query -> pairs -> mine). The binary path is injected by CMake.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <string>

#ifndef BATMAP_CLI_PATH
#define BATMAP_CLI_PATH "./batmap_cli"
#endif

namespace {

struct RunResult {
  int exit_code;
  std::string out;
};

RunResult run(const std::string& args) {
  const std::string cmd = std::string(BATMAP_CLI_PATH) + " " + args + " 2>&1";
  std::array<char, 4096> buf{};
  std::string out;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (!pipe) return {-1, ""};
  while (fgets(buf.data(), buf.size(), pipe)) out += buf.data();
  const int status = pclose(pipe);
  return {WEXITSTATUS(status), out};
}

TEST(CliTest, FullWorkflow) {
  const std::string fimi = "/tmp/batmap_cli_test.fimi";
  const std::string store = "/tmp/batmap_cli_test.store";

  auto gen = run("gen --items 50 --total 5000 --density 0.08 --out " + fimi);
  ASSERT_EQ(gen.exit_code, 0) << gen.out;
  EXPECT_NE(gen.out.find("wrote"), std::string::npos);

  auto build = run("build --fimi " + fimi + " --out " + store);
  ASSERT_EQ(build.exit_code, 0) << build.out;
  EXPECT_NE(build.out.find("built 50 batmaps"), std::string::npos);

  auto info = run("info --store " + store);
  ASSERT_EQ(info.exit_code, 0) << info.out;
  EXPECT_NE(info.out.find("store: 50 sets"), std::string::npos);
  EXPECT_NE(info.out.find("width runs (sorted):"), std::string::npos);

  auto query = run("query --store " + store + " --a 1 --b 2");
  ASSERT_EQ(query.exit_code, 0) << query.out;
  EXPECT_NE(query.out.find("∩"), std::string::npos);

  auto pairs = run("pairs --fimi " + fimi + " --minsup 5 --top 2");
  ASSERT_EQ(pairs.exit_code, 0) << pairs.out;
  EXPECT_NE(pairs.out.find("pairs with support >= 5"), std::string::npos);

  auto mine = run("mine --fimi " + fimi + " --minsup 20 --max-size 2");
  ASSERT_EQ(mine.exit_code, 0) << mine.out;
  EXPECT_NE(mine.out.find("frequent itemsets"), std::string::npos);

  auto verify = run("verify --fimi " + fimi);
  ASSERT_EQ(verify.exit_code, 0) << verify.out;
  EXPECT_EQ(verify.out.find("MISMATCH"), std::string::npos) << verify.out;
}

TEST(CliTest, PairsChunkedIngestMatchesWholeFile) {
  const std::string fimi = "/tmp/batmap_cli_test_chunk.fimi";
  ASSERT_EQ(
      run("gen --items 60 --total 8000 --density 0.07 --out " + fimi).exit_code,
      0);
  auto whole = run("pairs --fimi " + fimi + " --minsup 4 --top 3");
  ASSERT_EQ(whole.exit_code, 0) << whole.out;
  // Stream the same file through FimiChunkReader in ~2 KiB text chunks; the
  // mined pairs must be identical.
  auto chunked =
      run("pairs --fimi " + fimi + " --minsup 4 --top 3 --chunk-bytes 2048");
  ASSERT_EQ(chunked.exit_code, 0) << chunked.out;
  EXPECT_NE(chunked.out.find("streamed"), std::string::npos) << chunked.out;
  EXPECT_NE(chunked.out.find(" chunks"), std::string::npos) << chunked.out;
  const auto headline = [](const std::string& out) {
    const auto from = out.find("pairs with support");
    return out.substr(from, out.find(" (pre") - from);
  };
  EXPECT_EQ(headline(whole.out), headline(chunked.out))
      << whole.out << "\nvs\n" << chunked.out;
  const auto top = [](const std::string& out) {
    return out.substr(out.find("\n  {"));
  };
  ASSERT_NE(chunked.out.find("\n  {"), std::string::npos) << chunked.out;
  EXPECT_EQ(top(whole.out), top(chunked.out));
}

TEST(CliTest, SnapshotFromStore) {
  const std::string fimi = "/tmp/batmap_cli_test_snap.fimi";
  const std::string store = "/tmp/batmap_cli_test_snap.store";
  const std::string snap = "/tmp/batmap_cli_test_snap.snap";
  ASSERT_EQ(run("gen --items 30 --total 2000 --out " + fimi).exit_code, 0);
  ASSERT_EQ(run("build --fimi " + fimi + " --out " + store).exit_code, 0);
  auto res = run("snapshot --store " + store + " --out " + snap + " --epoch 3");
  ASSERT_EQ(res.exit_code, 0) << res.out;
  EXPECT_NE(res.out.find("snapshot: 30 sets, epoch 3"), std::string::npos)
      << res.out;
  EXPECT_EQ(run("snapshot --store /nonexistent --out " + snap).exit_code, 2);
  EXPECT_EQ(run("snapshot").exit_code, 2);  // missing --store
}

// Adaptive layouts shrink a zipf (webdocs) corpus of 8000 documents by at
// least 25% against its all-batmap snapshot; snapshot-info enforces it.
TEST(CliTest, AutoLayoutsSaveQuarterOnWebdocsCorpus) {
  const std::string fimi = "/tmp/batmap_cli_test_zipf.fimi";
  const std::string store = "/tmp/batmap_cli_test_zipf.store";
  const std::string snap = "/tmp/batmap_cli_test_zipf.snap";
  ASSERT_EQ(run("gen --dist webdocs --docs 8000 --mean-len 30 --out " + fimi)
                .exit_code,
            0);
  ASSERT_EQ(run("build --fimi " + fimi + " --out " + store).exit_code, 0);
  ASSERT_EQ(run("snapshot --store " + store + " --out " + snap +
                " --epoch 1 --layout auto")
                .exit_code,
            0);
  const auto info =
      run("snapshot-info --snapshot " + snap + " --assert-saving-pct 25");
  EXPECT_EQ(info.exit_code, 0) << info.out;
  EXPECT_NE(info.out.find("vs all-batmap:"), std::string::npos) << info.out;
  std::remove(fimi.c_str());
  std::remove(store.c_str());
  std::remove(snap.c_str());
}

TEST(CliTest, PairsDeviceBackendMatchesNative) {
  const std::string fimi = "/tmp/batmap_cli_test3.fimi";
  ASSERT_EQ(
      run("gen --items 40 --total 3000 --density 0.1 --out " + fimi).exit_code,
      0);
  auto native = run("pairs --fimi " + fimi + " --minsup 4 --top 3");
  ASSERT_EQ(native.exit_code, 0) << native.out;
  auto device =
      run("pairs --fimi " + fimi + " --minsup 4 --top 3 --backend device");
  ASSERT_EQ(device.exit_code, 0) << device.out;
  // Identical frequent-pair headline and identical top pairs: both backends
  // produce bit-identical counts.
  const auto headline = [](const std::string& out) {
    return out.substr(0, out.find(" (pre"));
  };
  EXPECT_EQ(headline(native.out), headline(device.out))
      << native.out << "\nvs\n"
      << device.out;
  const auto top = [](const std::string& out) {
    return out.substr(out.find("\n  {"));
  };
  ASSERT_NE(native.out.find("\n  {"), std::string::npos) << native.out;
  ASSERT_NE(device.out.find("\n  {"), std::string::npos) << device.out;
  EXPECT_EQ(top(native.out), top(device.out));
  EXPECT_NE(device.out.find("device sweep:"), std::string::npos) << device.out;
}

TEST(CliTest, ErrorPaths) {
  EXPECT_EQ(run("").exit_code, 2);
  EXPECT_EQ(run("frobnicate").exit_code, 2);
  EXPECT_EQ(run("build").exit_code, 2);                    // missing --fimi
  EXPECT_EQ(run("info --store /nonexistent").exit_code, 2);
  EXPECT_EQ(run("query --store /nonexistent").exit_code, 2);
  EXPECT_EQ(run("pairs --fimi /dev/null --backend warp").exit_code, 2);
}

TEST(CliTest, QueryOutOfRange) {
  const std::string fimi = "/tmp/batmap_cli_test2.fimi";
  const std::string store = "/tmp/batmap_cli_test2.store";
  ASSERT_EQ(run("gen --items 5 --total 100 --out " + fimi).exit_code, 0);
  ASSERT_EQ(run("build --fimi " + fimi + " --out " + store).exit_code, 0);
  EXPECT_EQ(run("query --store " + store + " --a 0 --b 99").exit_code, 2);
}

}  // namespace
