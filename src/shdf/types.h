#pragma once
/// \file types.h
/// \brief Element types and attribute values for the SHDF scientific format.
///
/// SHDF ("Simple Hierarchical Data Format") is this project's from-scratch
/// stand-in for HDF4/HDF5 (DESIGN.md §2): a binary-portable container that
/// couples n-dimensional typed array data with user metadata in one file.

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "util/error.h"

namespace roc::shdf {

/// Element type of a dataset.
enum class DataType : uint8_t {
  kInt8 = 0,
  kUInt8 = 1,
  kInt32 = 2,
  kUInt32 = 3,
  kInt64 = 4,
  kUInt64 = 5,
  kFloat32 = 6,
  kFloat64 = 7,
};

/// Size in bytes of one element of `t`.
[[nodiscard]] constexpr size_t type_size(DataType t) {
  switch (t) {
    case DataType::kInt8:
    case DataType::kUInt8: return 1;
    case DataType::kInt32:
    case DataType::kUInt32:
    case DataType::kFloat32: return 4;
    case DataType::kInt64:
    case DataType::kUInt64:
    case DataType::kFloat64: return 8;
  }
  return 0;
}

[[nodiscard]] const char* type_name(DataType t);

/// Maps C++ element types to DataType tags (for the typed read/write
/// helpers).
template <typename T>
struct TypeTag;
template <> struct TypeTag<int8_t> { static constexpr DataType value = DataType::kInt8; };
template <> struct TypeTag<uint8_t> { static constexpr DataType value = DataType::kUInt8; };
template <> struct TypeTag<int32_t> { static constexpr DataType value = DataType::kInt32; };
template <> struct TypeTag<uint32_t> { static constexpr DataType value = DataType::kUInt32; };
template <> struct TypeTag<int64_t> { static constexpr DataType value = DataType::kInt64; };
template <> struct TypeTag<uint64_t> { static constexpr DataType value = DataType::kUInt64; };
template <> struct TypeTag<float> { static constexpr DataType value = DataType::kFloat32; };
template <> struct TypeTag<double> { static constexpr DataType value = DataType::kFloat64; };

/// A user attribute attached to a dataset: scalar, string, or small array.
/// This is the "metadata coupled with real data" the paper requires.
using AttrValue = std::variant<int64_t, double, std::string,
                               std::vector<int64_t>, std::vector<double>>;

/// Named attribute.
struct Attribute {
  std::string name;
  AttrValue value;
};

/// Full description of one dataset (everything except the payload bytes).
struct DatasetDef {
  std::string name;            ///< Hierarchical name, e.g. "block_0007/pressure".
  DataType type = DataType::kFloat64;
  std::vector<uint64_t> dims;  ///< Extent per dimension; empty means scalar.
  std::vector<Attribute> attributes;

  /// Total number of elements.
  [[nodiscard]] uint64_t element_count() const {
    uint64_t n = 1;
    for (uint64_t d : dims) n *= d;
    return n;
  }
  /// Total payload bytes.
  [[nodiscard]] uint64_t byte_count() const {
    return element_count() * type_size(type);
  }
};

/// What the reader reports about a stored dataset.
struct DatasetInfo {
  DatasetDef def;
  uint64_t data_offset = 0;  ///< Absolute file offset of the payload.
  uint64_t data_bytes = 0;   ///< Payload size.
  uint64_t checksum = 0;     ///< CRC-64 of the payload.
};

}  // namespace roc::shdf
