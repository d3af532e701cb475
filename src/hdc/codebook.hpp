// Codebook: an indexed set of atomic item hypervectors.
//
// Each class / subclass level / attribute in a representation owns a codebook
// A_i = {a_i1, ..., a_iM}; factorization identifies which codebook entries a
// composite HV was built from. Codebooks are immutable after construction,
// and copies share one storage.
//
// Storage follows the paper's §IV-A storage rule. A codebook whose entries
// all lie in {-1, 0, +1} keeps them only as 64-bit word planes: 1 bit per
// dimension for bipolar rows (a sign plane), 2 for ternary ones (plus a
// nonzero plane, present once any entry is 0). The layout is the one
// kernels::PackedItemMemory scans (hdc/kernels/plane.hpp: row-major, bit i
// of word w is dimension 64 * w + i, canonical tails), so every packed
// ItemMemory over the codebook adopts these planes without a copy. A
// codebook with any other entry keeps int32 rows.
//
// item() unpacks one row. rows() is an int32 view of every row, built from
// the planes on first use and shared by copies. Only the scalar scans of
// integer-bundle queries (the multi-object residuals) and the resonator /
// IMC baselines read it; single-object factorization never builds it. The
// view is interim: once integer queries run on the planes it goes away.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "hdc/hypervector.hpp"
#include "util/rng.hpp"

namespace factorhd::hdc {

class Codebook {
 public:
  /// Generates `size` independent random bipolar HVs of dimension `dim`,
  /// writing each 64-bit draw straight into the sign plane: row j is the
  /// HV the j-th random_bipolar(dim, rng) call would return.
  /// \param dim Hypervector dimension.
  /// \param size Number of items to generate.
  /// \param rng Source of randomness.
  /// \param name Optional diagnostic name.
  Codebook(std::size_t dim, std::size_t size, util::Xoshiro256& rng,
           std::string name = {});

  /// Wraps existing item HVs. Rows in {-1, 0, +1} are packed into planes
  /// once (kernels::pack_rows) and the int32 rows are dropped; any other
  /// entry keeps them as int32 rows.
  /// \param items Item hypervectors; all must share the same non-zero
  ///   dimension.
  /// \param name Optional diagnostic name.
  /// \throws std::invalid_argument On mixed or zero dimensions.
  explicit Codebook(std::vector<Hypervector> items, std::string name = {});

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// Item HV by index, unpacked from the planes when the codebook has them.
  /// \param index Item index.
  /// \return A copy of the item hypervector.
  /// \throws std::out_of_range On bad index.
  [[nodiscard]] Hypervector item(std::size_t index) const;
  [[nodiscard]] Hypervector operator[](std::size_t index) const {
    return item(index);
  }

  /// target += item(index), read straight from the planes when the
  /// codebook has them (no temporary row).
  /// \param index Item index.
  /// \param target Accumulator of the codebook's dimension.
  /// \throws std::out_of_range On bad index.
  /// \throws std::invalid_argument On a dimension mismatch.
  void accumulate_item(std::size_t index, Hypervector& target) const;

  /// \return True when every entry lies in {-1, 0, +1}: the rows are held
  ///   as word planes only (until rows() is first called).
  [[nodiscard]] bool has_planes() const noexcept;

  /// \return The row-major sign plane, ceil(dim() / 64) words per row (bit
  ///   set where the entry is +1); empty when has_planes() is false.
  [[nodiscard]] std::span<const std::uint64_t> sign_plane() const noexcept;

  /// \return The row-major nonzero plane (bit set where the entry is not
  ///   0); empty unless some entry is 0.
  [[nodiscard]] std::span<const std::uint64_t> nonzero_plane() const noexcept;

  /// \return Shared ownership of the storage the planes live in; holding it
  ///   keeps sign_plane() and nonzero_plane() valid past this object's
  ///   lifetime (what kernels::PackedItemMemory keeps alive).
  [[nodiscard]] std::shared_ptr<const void> storage() const noexcept;

  /// Every row as an int32 HV. On a codebook with planes the view is built
  /// on the first call (thread-safe, once per storage, shared by copies;
  /// kernels::unpack_rows) and costs 4 * dim() bytes per row from then on.
  /// \return The rows, in index order.
  [[nodiscard]] const std::vector<Hypervector>& rows() const;

  /// \return True once the int32 rows exist: always for a codebook without
  ///   planes, else after the first rows() call on it or a copy.
  [[nodiscard]] bool rows_materialized() const noexcept;

 private:
  struct Storage;

  std::size_t dim_ = 0;
  std::size_t size_ = 0;
  std::shared_ptr<Storage> storage_;
  std::string name_;
};

}  // namespace factorhd::hdc
