// Binary serialization for model checkpoints.
//
// Format: little-endian, magic "ODNW", u32 version, then a sequence of
// tagged float arrays (u64 length + payload). Readers validate magic,
// version and length so truncated or foreign files fail loudly instead of
// producing garbage nets.
#pragma once

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <vector>

namespace odenet::util {

inline constexpr std::uint32_t kWeightsMagic = 0x4F444E57;  // "ODNW"
/// The one checkpoint format: a versioned model snapshot — architecture
/// descriptor, snapshot version id, then params and BN running statistics
/// (models/snapshot.hpp). Version 1, a bare weight blob, is no longer read.
inline constexpr std::uint32_t kSnapshotVersion = 2;

class BinaryWriter {
 public:
  explicit BinaryWriter(std::ostream& os);

  void write_u32(std::uint32_t v);
  void write_u64(std::uint64_t v);
  void write_f32(float v);
  void write_f64(double v);
  void write_string(const std::string& s);
  void write_floats(const std::vector<float>& v);

 private:
  std::ostream& os_;
};

class BinaryReader {
 public:
  explicit BinaryReader(std::istream& is);

  std::uint32_t read_u32();
  std::uint64_t read_u64();
  float read_f32();
  double read_f64();
  std::string read_string();
  std::vector<float> read_floats();

 private:
  void read_raw(void* dst, std::size_t bytes);
  std::istream& is_;
};

/// Writes the checkpoint header (magic + kSnapshotVersion).
void write_weights_header(BinaryWriter& w);
/// Validates the header; throws odenet::Error on a bad magic or any
/// version but kSnapshotVersion.
void read_weights_header(BinaryReader& r);

}  // namespace odenet::util
