#include "io/serializer.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "io/snapshot.h"

namespace gbkmv {
namespace {

TEST(SerializerTest, PrimitiveRoundTrip) {
  io::Writer w;
  w.PutU8(0xAB);
  w.PutBool(true);
  w.PutU32(0xDEADBEEFu);
  w.PutU64(std::numeric_limits<uint64_t>::max());
  w.PutDouble(0.1234567891011);
  w.PutString("hello snapshot");

  io::Reader r(w.data());
  uint8_t u8 = 0;
  bool b = false;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  double d = 0;
  std::string s;
  ASSERT_TRUE(r.GetU8(&u8).ok());
  ASSERT_TRUE(r.GetBool(&b).ok());
  ASSERT_TRUE(r.GetU32(&u32).ok());
  ASSERT_TRUE(r.GetU64(&u64).ok());
  ASSERT_TRUE(r.GetDouble(&d).ok());
  ASSERT_TRUE(r.GetString(&s).ok());
  EXPECT_EQ(u8, 0xAB);
  EXPECT_TRUE(b);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, std::numeric_limits<uint64_t>::max());
  EXPECT_DOUBLE_EQ(d, 0.1234567891011);
  EXPECT_EQ(s, "hello snapshot");
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerializerTest, LittleEndianLayout) {
  io::Writer w;
  w.PutU32(0x04030201u);
  ASSERT_EQ(w.size(), 4u);
  EXPECT_EQ(static_cast<uint8_t>(w.data()[0]), 0x01);
  EXPECT_EQ(static_cast<uint8_t>(w.data()[3]), 0x04);
}

TEST(SerializerTest, VectorRoundTrip) {
  io::Writer w;
  w.PutVecU32({1, 2, 3});
  w.PutVecU64({0, ~0ULL});
  io::Reader r(w.data());
  std::vector<uint32_t> v32;
  std::vector<uint64_t> v64;
  ASSERT_TRUE(r.GetVecU32(&v32).ok());
  ASSERT_TRUE(r.GetVecU64(&v64).ok());
  EXPECT_EQ(v32, (std::vector<uint32_t>{1, 2, 3}));
  EXPECT_EQ(v64, (std::vector<uint64_t>{0, ~0ULL}));
}

// Zero-length aligned arrays round-trip into empty containers, whose
// data() is null: the copying readers must not pass that to memcpy.
TEST(SerializerTest, EmptyAlignedArraysRoundTrip) {
  const std::vector<uint32_t> no_u32;
  const std::vector<uint64_t> no_u64;
  const std::string no_bytes;
  io::Writer w;
  w.PutU32Array(no_u32.data(), no_u32.size());
  w.PutU64Array(no_u64.data(), no_u64.size());
  w.PutAlignedBytes(no_bytes.data(), no_bytes.size());
  w.PutU32(0xC0FFEEu);

  io::Reader r(w.data());
  std::vector<uint32_t> u32;
  std::vector<uint64_t> u64;
  std::string bytes = "stale";
  uint32_t tail = 0;
  ASSERT_TRUE(r.GetU32Array(&u32).ok());
  ASSERT_TRUE(r.GetU64Array(&u64).ok());
  ASSERT_TRUE(r.GetAlignedBytes(&bytes).ok());
  ASSERT_TRUE(r.GetU32(&tail).ok());
  EXPECT_TRUE(u32.empty());
  EXPECT_TRUE(u64.empty());
  EXPECT_TRUE(bytes.empty());
  EXPECT_EQ(0xC0FFEEu, tail);
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerializerTest, OverrunIsCorruptionNotCrash) {
  io::Writer w;
  w.PutU32(7);
  io::Reader r(w.data());
  uint64_t u64 = 0;
  const Status s = r.GetU64(&u64);
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
}

TEST(SerializerTest, HugeLengthPrefixRejectedBeforeAllocation) {
  io::Writer w;
  w.PutU64(~0ULL);  // claims 2^64-1 elements
  io::Reader r(w.data());
  std::vector<uint64_t> v;
  const Status s = r.GetVecU64(&v);
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  std::string out;
  io::Reader r2(w.data());
  EXPECT_EQ(r2.GetString(&out).code(), StatusCode::kCorruption);
}

TEST(SerializerTest, Crc32KnownVector) {
  // CRC-32 of "123456789" is the classic check value 0xCBF43926.
  EXPECT_EQ(io::Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(io::Crc32("", 0), 0u);
}

TEST(SnapshotContainerTest, SectionRoundTrip) {
  io::SnapshotWriter snapshot;
  snapshot.AddSection("aaaa")->PutU64(41);
  snapshot.AddSection("bbbb")->PutString("payload");
  auto reader = io::SnapshotReader::FromBytes(snapshot.Serialize());
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_TRUE(reader->HasSection("aaaa"));
  EXPECT_TRUE(reader->HasSection("bbbb"));
  EXPECT_FALSE(reader->HasSection("cccc"));
  auto a = reader->Section("aaaa");
  ASSERT_TRUE(a.ok());
  uint64_t v = 0;
  ASSERT_TRUE(a->GetU64(&v).ok());
  EXPECT_EQ(v, 41u);
  EXPECT_EQ(reader->Section("cccc").status().code(), StatusCode::kNotFound);
}

TEST(SnapshotContainerTest, FlippedByteFailsCrc) {
  io::SnapshotWriter snapshot;
  io::Writer* w = snapshot.AddSection("data");
  for (uint64_t i = 0; i < 64; ++i) w->PutU64(i);
  std::string image = snapshot.Serialize();
  image[image.size() - 3] ^= 0x40;  // flip one payload bit
  auto reader = io::SnapshotReader::FromBytes(image);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kCorruption);
}

TEST(SnapshotContainerTest, TruncationIsCorruption) {
  io::SnapshotWriter snapshot;
  snapshot.AddSection("data")->PutString("0123456789");
  const std::string image = snapshot.Serialize();
  for (size_t cut : {0ul, 4ul, 15ul, 20ul, image.size() - 1}) {
    auto reader = io::SnapshotReader::FromBytes(image.substr(0, cut));
    ASSERT_FALSE(reader.ok()) << "cut=" << cut;
    EXPECT_EQ(reader.status().code(), StatusCode::kCorruption)
        << "cut=" << cut;
  }
}

TEST(SnapshotContainerTest, WrongMagicIsCorruption) {
  io::SnapshotWriter snapshot;
  snapshot.AddSection("data")->PutU64(1);
  std::string image = snapshot.Serialize();
  image[0] = 'X';
  auto reader = io::SnapshotReader::FromBytes(image);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kCorruption);
}

TEST(SnapshotContainerTest, FutureVersionIsInvalidArgument) {
  io::SnapshotWriter snapshot;
  snapshot.AddSection("data")->PutU64(1);
  std::string image = snapshot.Serialize();
  image[8] = static_cast<char>(io::kSnapshotVersion + 1);  // version field
  auto reader = io::SnapshotReader::FromBytes(image);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kInvalidArgument);
}

TEST(SnapshotContainerTest, MetaSectionRoundTrip) {
  io::SnapshotWriter snapshot;
  io::WriteSnapshotMeta(&snapshot, "gbkmv-index", 0x1122334455667788ULL);
  auto reader = io::SnapshotReader::FromBytes(snapshot.Serialize());
  ASSERT_TRUE(reader.ok());
  auto meta = io::ReadSnapshotMeta(*reader);
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ(meta->kind, "gbkmv-index");
  EXPECT_EQ(meta->fingerprint, 0x1122334455667788ULL);
}

}  // namespace
}  // namespace gbkmv
