#include "io/serializer.h"

#include <bit>
#include <cstring>

namespace gbkmv {
namespace io {

// Raw array payloads are memcpy'd between host integers and the on-disk
// little-endian encoding, so the zero-copy paths require a little-endian
// host (every supported target).
static_assert(std::endian::native == std::endian::little,
              "snapshot raw-array payloads assume a little-endian host");

namespace {

// Slicing-by-8 CRC-32 tables (reflected 0xEDB88320 polynomial). Table 0 is
// the classic byte-at-a-time table; tables 1..7 extend it so the hot loop
// folds 8 input bytes per iteration — the mmap loader CRCs whole sections,
// so this is on the cold-load critical path.
const uint32_t (*CrcTables())[256] {
  static uint32_t tables[8][256];
  static bool ready = [] {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      tables[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = tables[0][i];
      for (int t = 1; t < 8; ++t) {
        c = tables[0][c & 0xFF] ^ (c >> 8);
        tables[t][i] = c;
      }
    }
    return true;
  }();
  (void)ready;
  return tables;
}

}  // namespace

uint32_t Crc32(const void* data, size_t size) {
  const uint32_t(*t)[256] = CrcTables();
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t crc = 0xFFFFFFFFu;
  while (size >= 8) {
    uint32_t lo;
    uint32_t hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= crc;
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
          t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
    p += 8;
    size -= 8;
  }
  for (size_t i = 0; i < size; ++i) {
    crc = t[0][(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

void Writer::PutU32(uint32_t v) {
  char bytes[4];
  for (int i = 0; i < 4; ++i) bytes[i] = static_cast<char>(v >> (8 * i));
  buf_.append(bytes, 4);
}

void Writer::PutU64(uint64_t v) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<char>(v >> (8 * i));
  buf_.append(bytes, 8);
}

void Writer::PutDouble(double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits);
}

void Writer::PutBytes(const void* data, size_t size) {
  buf_.append(static_cast<const char*>(data), size);
}

void Writer::PutString(const std::string& s) {
  PutU64(s.size());
  buf_.append(s);
}

void Writer::PutVecU32(const std::vector<uint32_t>& v) {
  PutU64(v.size());
  for (uint32_t x : v) PutU32(x);
}

void Writer::PutVecU64(const std::vector<uint64_t>& v) {
  PutU64(v.size());
  for (uint64_t x : v) PutU64(x);
}

void Writer::AlignTo(size_t alignment) {
  const size_t rem = buf_.size() % alignment;
  if (rem != 0) buf_.append(alignment - rem, '\0');
}

void Writer::PutU32Array(const uint32_t* data, size_t count) {
  PutU64(count);
  AlignTo(64);
  PutBytes(data, count * sizeof(uint32_t));
}

void Writer::PutU64Array(const uint64_t* data, size_t count) {
  PutU64(count);
  AlignTo(64);
  PutBytes(data, count * sizeof(uint64_t));
}

void Writer::PutAlignedBytes(const void* data, size_t size) {
  PutU64(size);
  AlignTo(64);
  PutBytes(data, size);
}

Status Reader::Need(size_t n) {
  if (remaining() < n) {
    return Status::Corruption("unexpected end of data (need " +
                              std::to_string(n) + " bytes, have " +
                              std::to_string(remaining()) + ")");
  }
  return Status::OK();
}

Status Reader::GetU8(uint8_t* v) {
  GBKMV_RETURN_IF_ERROR(Need(1));
  *v = data_[pos_++];
  return Status::OK();
}

Status Reader::GetBool(bool* v) {
  uint8_t byte = 0;
  GBKMV_RETURN_IF_ERROR(GetU8(&byte));
  if (byte > 1) return Status::Corruption("bool byte out of range");
  *v = byte != 0;
  return Status::OK();
}

Status Reader::GetU32(uint32_t* v) {
  GBKMV_RETURN_IF_ERROR(Need(4));
  uint32_t out = 0;
  for (int i = 0; i < 4; ++i) {
    out |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 4;
  *v = out;
  return Status::OK();
}

Status Reader::GetU64(uint64_t* v) {
  GBKMV_RETURN_IF_ERROR(Need(8));
  uint64_t out = 0;
  for (int i = 0; i < 8; ++i) {
    out |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 8;
  *v = out;
  return Status::OK();
}

Status Reader::GetDouble(double* v) {
  uint64_t bits = 0;
  GBKMV_RETURN_IF_ERROR(GetU64(&bits));
  std::memcpy(v, &bits, sizeof(bits));
  return Status::OK();
}

Status Reader::GetBytes(void* out, size_t size) {
  GBKMV_RETURN_IF_ERROR(Need(size));
  std::memcpy(out, data_ + pos_, size);
  pos_ += size;
  return Status::OK();
}

Status Reader::GetLength(size_t elem_size, size_t* out) {
  uint64_t count = 0;
  GBKMV_RETURN_IF_ERROR(GetU64(&count));
  if (elem_size > 0 && count > remaining() / elem_size) {
    return Status::Corruption("length prefix " + std::to_string(count) +
                              " exceeds remaining data");
  }
  *out = static_cast<size_t>(count);
  return Status::OK();
}

Status Reader::GetString(std::string* out) {
  size_t len = 0;
  GBKMV_RETURN_IF_ERROR(GetLength(1, &len));
  out->assign(reinterpret_cast<const char*>(data_ + pos_), len);
  pos_ += len;
  return Status::OK();
}

Status Reader::GetVecU32(std::vector<uint32_t>* out) {
  size_t count = 0;
  GBKMV_RETURN_IF_ERROR(GetLength(4, &count));
  out->clear();
  out->reserve(count);
  for (size_t i = 0; i < count; ++i) {
    uint32_t v = 0;
    GBKMV_RETURN_IF_ERROR(GetU32(&v));
    out->push_back(v);
  }
  return Status::OK();
}

Status Reader::GetVecU64(std::vector<uint64_t>* out) {
  size_t count = 0;
  GBKMV_RETURN_IF_ERROR(GetLength(8, &count));
  out->clear();
  out->reserve(count);
  for (size_t i = 0; i < count; ++i) {
    uint64_t v = 0;
    GBKMV_RETURN_IF_ERROR(GetU64(&v));
    out->push_back(v);
  }
  return Status::OK();
}

Status Reader::AlignTo(size_t alignment) {
  const size_t rem = pos_ % alignment;
  if (rem == 0) return Status::OK();
  GBKMV_RETURN_IF_ERROR(Need(alignment - rem));
  pos_ += alignment - rem;
  return Status::OK();
}

namespace {
template <typename T>
Status GetArrayImpl(Reader* reader, const uint8_t** payload, size_t* count) {
  GBKMV_RETURN_IF_ERROR(reader->GetArrayHeader(sizeof(T), count));
  *payload = reader->Skip(*count * sizeof(T));
  return Status::OK();
}

template <typename T>
Status CopyArray(Reader* reader, std::vector<T>* out) {
  const uint8_t* payload = nullptr;
  size_t count = 0;
  GBKMV_RETURN_IF_ERROR(GetArrayImpl<T>(reader, &payload, &count));
  out->resize(count);
  // An empty vector's data() may be null, and memcpy from or to null is
  // undefined even for zero bytes.
  if (count != 0) std::memcpy(out->data(), payload, count * sizeof(T));
  return Status::OK();
}
}  // namespace

Status Reader::GetArrayHeader(size_t elem_size, size_t* count) {
  GBKMV_RETURN_IF_ERROR(GetLength(elem_size, count));
  GBKMV_RETURN_IF_ERROR(AlignTo(64));
  if (*count > remaining() / elem_size) {
    return Status::Corruption("aligned array overruns its section");
  }
  return Status::OK();
}

const uint8_t* Reader::Skip(size_t n) {
  const uint8_t* p = data_ + pos_;
  pos_ += n;
  return p;
}

Status Reader::GetU32Array(std::vector<uint32_t>* out) {
  return CopyArray(this, out);
}

Status Reader::GetU64Array(std::vector<uint64_t>* out) {
  return CopyArray(this, out);
}

Status Reader::GetAlignedBytes(std::string* out) {
  const uint8_t* payload = nullptr;
  size_t count = 0;
  GBKMV_RETURN_IF_ERROR(GetArrayImpl<uint8_t>(this, &payload, &count));
  // std::string::assign copies nothing for a zero count.
  out->assign(reinterpret_cast<const char*>(payload), count);
  return Status::OK();
}

Status Reader::GetU32Span(std::span<const uint32_t>* out) {
  const uint8_t* payload = nullptr;
  size_t count = 0;
  GBKMV_RETURN_IF_ERROR(GetArrayImpl<uint32_t>(this, &payload, &count));
  if (reinterpret_cast<uintptr_t>(payload) % alignof(uint32_t) != 0) {
    return Status::Corruption("misaligned u32 array payload");
  }
  *out = std::span<const uint32_t>(reinterpret_cast<const uint32_t*>(payload),
                                   count);
  return Status::OK();
}

Status Reader::GetU64Span(std::span<const uint64_t>* out) {
  const uint8_t* payload = nullptr;
  size_t count = 0;
  GBKMV_RETURN_IF_ERROR(GetArrayImpl<uint64_t>(this, &payload, &count));
  if (reinterpret_cast<uintptr_t>(payload) % alignof(uint64_t) != 0) {
    return Status::Corruption("misaligned u64 array payload");
  }
  *out = std::span<const uint64_t>(reinterpret_cast<const uint64_t*>(payload),
                                   count);
  return Status::OK();
}

Status Reader::GetByteSpan(std::span<const uint8_t>* out) {
  const uint8_t* payload = nullptr;
  size_t count = 0;
  GBKMV_RETURN_IF_ERROR(GetArrayImpl<uint8_t>(this, &payload, &count));
  *out = std::span<const uint8_t>(payload, count);
  return Status::OK();
}

}  // namespace io
}  // namespace gbkmv
