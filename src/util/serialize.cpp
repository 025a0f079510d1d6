#include "util/serialize.hpp"

#include <cstring>

#include "util/check.hpp"

namespace odenet::util {

BinaryWriter::BinaryWriter(std::ostream& os) : os_(os) {}

void BinaryWriter::write_u32(std::uint32_t v) {
  os_.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
void BinaryWriter::write_u64(std::uint64_t v) {
  os_.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
void BinaryWriter::write_f32(float v) {
  os_.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
void BinaryWriter::write_f64(double v) {
  os_.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
void BinaryWriter::write_string(const std::string& s) {
  write_u64(s.size());
  os_.write(s.data(), static_cast<std::streamsize>(s.size()));
}
void BinaryWriter::write_floats(const std::vector<float>& v) {
  write_u64(v.size());
  os_.write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(v.size() * sizeof(float)));
}

BinaryReader::BinaryReader(std::istream& is) : is_(is) {}

void BinaryReader::read_raw(void* dst, std::size_t bytes) {
  is_.read(reinterpret_cast<char*>(dst),
           static_cast<std::streamsize>(bytes));
  ODENET_CHECK(static_cast<std::size_t>(is_.gcount()) == bytes,
               "truncated stream: wanted " << bytes << " bytes");
}

std::uint32_t BinaryReader::read_u32() {
  std::uint32_t v = 0;
  read_raw(&v, sizeof(v));
  return v;
}
std::uint64_t BinaryReader::read_u64() {
  std::uint64_t v = 0;
  read_raw(&v, sizeof(v));
  return v;
}
float BinaryReader::read_f32() {
  float v = 0;
  read_raw(&v, sizeof(v));
  return v;
}
double BinaryReader::read_f64() {
  double v = 0;
  read_raw(&v, sizeof(v));
  return v;
}
std::string BinaryReader::read_string() {
  const std::uint64_t n = read_u64();
  ODENET_CHECK(n < (1ULL << 32), "unreasonable string length " << n);
  std::string s(n, '\0');
  if (n) read_raw(s.data(), n);
  return s;
}
std::vector<float> BinaryReader::read_floats() {
  const std::uint64_t n = read_u64();
  ODENET_CHECK(n < (1ULL << 34), "unreasonable array length " << n);
  std::vector<float> v(n);
  if (n) read_raw(v.data(), n * sizeof(float));
  return v;
}

void write_weights_header(BinaryWriter& w) {
  w.write_u32(kWeightsMagic);
  w.write_u32(kSnapshotVersion);
}

void read_weights_header(BinaryReader& r) {
  const auto magic = r.read_u32();
  ODENET_CHECK(magic == kWeightsMagic, "bad checkpoint magic " << magic);
  const auto version = r.read_u32();
  ODENET_CHECK(version == kSnapshotVersion,
               "unsupported checkpoint version " << version);
}

}  // namespace odenet::util
