// Unit tests for the foundation module: bit I/O (including handover resume),
// serialization, statistics, MD5 vectors, tracked memory, the arena budget
// discipline, and RNG determinism.
#include <gtest/gtest.h>

#include <cstring>
#include <thread>

#include "util/arena.h"
#include "util/bitio.h"
#include "util/exit_codes.h"
#include "util/md5.h"
#include "util/rng.h"
#include "util/serialize.h"
#include "util/stats.h"
#include "util/thread_pool.h"
#include "util/tracked_memory.h"
#include "util/zlib_util.h"

namespace lu = lepton::util;

TEST(BitIo, RoundTripBits) {
  lu::BitWriter w;
  w.put_bits(0b1011, 4);
  w.put_bits(0b0, 1);
  w.put_bits(0b11111111111, 11);
  w.pad_to_byte(0);
  lu::BitReader r({w.bytes().data(), w.bytes().size()});
  EXPECT_EQ(r.get_bits(4), 0b1011u);
  EXPECT_EQ(r.get_bits(1), 0b0u);
  EXPECT_EQ(r.get_bits(11), 0b11111111111u);
  EXPECT_TRUE(r.ok());
}

TEST(BitIo, HandoverResumeConcatenatesExactly) {
  // Write a stream in one piece, then in two pieces split mid-byte using the
  // partial-byte handover. The concatenation must be identical — this is the
  // core mechanism of the paper's Huffman handover words.
  lu::BitWriter whole;
  for (int i = 0; i < 100; ++i) whole.put_bits(static_cast<std::uint32_t>(i), 7);
  whole.pad_to_byte(1);

  lu::BitWriter first;
  for (int i = 0; i < 37; ++i) first.put_bits(static_cast<std::uint32_t>(i), 7);
  std::uint8_t partial = first.partial_byte();
  int off = first.bit_offset();
  lu::BitWriter second(partial, off);
  for (int i = 37; i < 100; ++i) second.put_bits(static_cast<std::uint32_t>(i), 7);
  second.pad_to_byte(1);

  std::vector<std::uint8_t> cat = first.bytes();
  cat.insert(cat.end(), second.bytes().begin(), second.bytes().end());
  EXPECT_EQ(cat, whole.bytes());
}

TEST(BitIo, ReaderReportsTruncation) {
  std::uint8_t one = 0xAB;
  lu::BitReader r({&one, 1});
  r.get_bits(8);
  EXPECT_TRUE(r.ok());
  r.get_bit();
  EXPECT_FALSE(r.ok());
}

TEST(Serialize, RoundTripAllWidths) {
  lu::Serializer s;
  s.u8(0xAB);
  s.u16(0xBEEF);
  s.u32(0xDEADBEEFu);
  s.u64(0x0123456789ABCDEFull);
  s.i16(-12345);
  s.i32(-123456789);
  std::vector<std::uint8_t> payload = {1, 2, 3};
  s.blob({payload.data(), payload.size()});

  lu::Deserializer d({s.data().data(), s.data().size()});
  EXPECT_EQ(d.u8(), 0xAB);
  EXPECT_EQ(d.u16(), 0xBEEF);
  EXPECT_EQ(d.u32(), 0xDEADBEEFu);
  EXPECT_EQ(d.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(d.i16(), -12345);
  EXPECT_EQ(d.i32(), -123456789);
  EXPECT_EQ(d.blob(), payload);
  EXPECT_TRUE(d.ok());
  EXPECT_EQ(d.remaining(), 0u);
}

TEST(Serialize, DeserializerRejectsOverrun) {
  std::uint8_t buf[2] = {1, 2};
  lu::Deserializer d({buf, 2});
  d.u32();
  EXPECT_FALSE(d.ok());
}

TEST(Stats, PercentilesExact) {
  lu::Percentiles p;
  for (int i = 1; i <= 100; ++i) p.add(i);
  EXPECT_NEAR(p.percentile(50), 50.5, 1e-9);
  EXPECT_NEAR(p.percentile(0), 1.0, 1e-9);
  EXPECT_NEAR(p.percentile(100), 100.0, 1e-9);
  EXPECT_NEAR(p.percentile(99), 99.01, 0.02);
  EXPECT_NEAR(p.mean(), 50.5, 1e-9);
}

TEST(Stats, RunningStatMatchesBatch) {
  lu::Rng rng(7);
  lu::Percentiles p;
  lu::RunningStat rs;
  for (int i = 0; i < 1000; ++i) {
    double v = rng.normal(10.0, 3.0);
    p.add(v);
    rs.add(v);
  }
  EXPECT_NEAR(p.mean(), rs.mean(), 1e-9);
  EXPECT_NEAR(p.stddev(), rs.stddev(), 1e-9);
  EXPECT_NEAR(rs.mean(), 10.0, 0.5);
  EXPECT_NEAR(rs.stddev(), 3.0, 0.5);
}

TEST(Md5, Rfc1321Vectors) {
  auto hex = [](const char* s) {
    return lu::Md5::hex_digest(
        {reinterpret_cast<const std::uint8_t*>(s), std::strlen(s)});
  };
  EXPECT_EQ(hex(""), "d41d8cd98f00b204e9800998ecf8427e");
  EXPECT_EQ(hex("abc"), "900150983cd24fb0d6963f7d28e17f72");
  EXPECT_EQ(hex("message digest"), "f96b697d7cb7938d525a2f31aaf161d0");
  EXPECT_EQ(hex("abcdefghijklmnopqrstuvwxyz"),
            "c3fcd3d76192e4007dfb496cca67e13b");
}

TEST(Md5, IncrementalMatchesOneShot) {
  std::vector<std::uint8_t> data(100000);
  lu::Rng rng(3);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  lu::Md5 h;
  std::size_t pos = 0;
  std::size_t chunks[] = {1, 63, 64, 65, 1000, 31337};
  int i = 0;
  while (pos < data.size()) {
    std::size_t n = std::min(chunks[i++ % 6], data.size() - pos);
    h.update({data.data() + pos, n});
    pos += n;
  }
  EXPECT_EQ(h.final(), lu::Md5::digest({data.data(), data.size()}));
}

TEST(TrackedMemory, GaugeSeesPeak) {
  lu::MemoryGauge g;
  {
    lu::tracked_vector<std::uint8_t> big(1 << 20);
    big[0] = 1;
  }
  EXPECT_GE(g.peak_bytes(), 1u << 20);
}

TEST(Arena, BudgetEnforcedAndZeroed) {
  lu::Arena a(1024);
  auto* p = a.alloc_array<std::uint8_t>(1000);
  ASSERT_NE(p, nullptr);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(p[i], 0);
  p[0] = 42;
  // Over budget: must fail cleanly, not grow.
  EXPECT_EQ(a.alloc(100), nullptr);
  a.reset();
  auto* q = a.alloc_array<std::uint8_t>(8);
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(q[0], 0) << "arena memory must be re-zeroed on reset (§5.2)";
}

TEST(Arena, AlignmentRespected) {
  lu::Arena a(4096);
  a.alloc(3, 1);
  void* p = a.alloc(16, 64);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 64, 0u);
}

TEST(Rng, DeterministicAcrossInstances) {
  lu::Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
  lu::Rng c(43);
  EXPECT_NE(lu::Rng(42).next(), c.next());
}

TEST(Rng, UniformInRange) {
  lu::Rng r(1);
  for (int i = 0; i < 1000; ++i) {
    double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    auto v = r.range(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(ThreadPool, RunsAllTasks) {
  std::atomic<int> count{0};
  {
    lu::ThreadPool pool(4);
    std::atomic<int> done{0};
    for (int i = 0; i < 100; ++i) {
      pool.submit([&] {
        count.fetch_add(1);
        done.fetch_add(1);
      });
    }
    while (done.load() < 100) std::this_thread::yield();
  }
  EXPECT_EQ(count.load(), 100);
}

TEST(Zlib, RoundTrip) {
  std::vector<std::uint8_t> data(50000);
  lu::Rng rng(9);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>((i / 100) & 0xFF);  // compressible
  }
  auto z = lu::zlib_compress({data.data(), data.size()}, 6);
  ASSERT_FALSE(z.empty());
  EXPECT_LT(z.size(), data.size());
  std::vector<std::uint8_t> back;
  ASSERT_TRUE(lu::zlib_decompress({z.data(), z.size()}, back));
  EXPECT_EQ(back, data);
}

TEST(Zlib, RejectsCorrupt) {
  std::vector<std::uint8_t> junk(100, 0x55);
  std::vector<std::uint8_t> out;
  EXPECT_FALSE(lu::zlib_decompress({junk.data(), junk.size()}, out));
}

TEST(ExitCodes, NamesMatchPaperTable) {
  using lepton::util::ExitCode;
  using lepton::util::exit_code_name;
  EXPECT_EQ(exit_code_name(ExitCode::kSuccess), "Success");
  EXPECT_EQ(exit_code_name(ExitCode::kProgressive), "Progressive");
  EXPECT_EQ(exit_code_name(ExitCode::kMemLimitDecode), ">24 MiB mem decode");
  EXPECT_EQ(exit_code_name(ExitCode::kRoundtripFailed), "Roundtrip failed");
}
