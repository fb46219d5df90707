/// \file shdf_test.cpp
/// \brief Tests for the SHDF scientific file format: round trips,
/// attributes, directory engines, append mode, integrity and corruption
/// detection.

#include <gtest/gtest.h>

#include <numeric>

#include "shdf/reader.h"
#include "shdf/writer.h"
#include "util/crc64.h"
#include "util/log_capture.h"
#include "vfs/vfs.h"

#include "test_fs.h"

namespace roc::shdf {
namespace {

class ShdfTest : public ::testing::TestWithParam<DirectoryKind> {
 protected:
  vfs::MemFileSystem fs_;
};

TEST_P(ShdfTest, EmptyFileRoundTrip) {
  {
    Writer w(fs_, "empty.shdf", GetParam());
    w.close();
  }
  Reader r(fs_, "empty.shdf");
  EXPECT_EQ(r.dataset_count(), 0u);
  EXPECT_EQ(r.directory_kind(), GetParam());
  EXPECT_FALSE(r.has_dataset("anything"));
}

TEST_P(ShdfTest, TypedRoundTrip) {
  const std::vector<double> d{1.5, -2.5, 3.25};
  const std::vector<int32_t> i{10, -20, 30, 40};
  const std::vector<float> f{0.5f, 1.5f};
  const std::vector<uint8_t> b{1, 2, 255};
  {
    Writer w(fs_, "typed.shdf", GetParam());
    w.add("doubles", d);
    w.add("ints", i);
    w.add("floats", f);
    w.add("bytes", b);
  }
  Reader r(fs_, "typed.shdf");
  EXPECT_EQ(r.dataset_count(), 4u);
  EXPECT_EQ(r.read<double>("doubles"), d);
  EXPECT_EQ(r.read<int32_t>("ints"), i);
  EXPECT_EQ(r.read<float>("floats"), f);
  EXPECT_EQ(r.read<uint8_t>("bytes"), b);
}

TEST_P(ShdfTest, TypeMismatchThrows) {
  {
    Writer w(fs_, "t.shdf", GetParam());
    w.add("x", std::vector<double>{1.0});
  }
  Reader r(fs_, "t.shdf");
  EXPECT_THROW((void)r.read<int32_t>("x"), FormatError);
}

TEST_P(ShdfTest, MultiDimensionalDims) {
  std::vector<double> data(3 * 4 * 5);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<double>(i);
  {
    Writer w(fs_, "md.shdf", GetParam());
    w.add("cube", data, {}, {3, 4, 5});
  }
  Reader r(fs_, "md.shdf");
  EXPECT_EQ(r.info("cube").def.dims, (std::vector<uint64_t>{3, 4, 5}));
  EXPECT_EQ(r.read<double>("cube"), data);
}

TEST_P(ShdfTest, DimsElementCountMismatchRejected) {
  Writer w(fs_, "bad.shdf", GetParam());
  EXPECT_THROW(w.add("x", std::vector<double>{1, 2, 3}, {}, {2, 2}),
               InvalidArgument);
}

TEST_P(ShdfTest, AttributesOfAllKinds) {
  {
    Writer w(fs_, "attrs.shdf", GetParam());
    w.add("data", std::vector<double>{1.0},
          {Attribute{"count", int64_t{42}},
           Attribute{"dt", 0.125},
           Attribute{"label", std::string("pressure")},
           Attribute{"dims", std::vector<int64_t>{4, 5, 6}},
           Attribute{"weights", std::vector<double>{0.5, 0.25}}});
  }
  Reader r(fs_, "attrs.shdf");
  EXPECT_EQ(std::get<int64_t>(*r.attribute("data", "count")), 42);
  EXPECT_DOUBLE_EQ(std::get<double>(*r.attribute("data", "dt")), 0.125);
  EXPECT_EQ(std::get<std::string>(*r.attribute("data", "label")), "pressure");
  EXPECT_EQ(std::get<std::vector<int64_t>>(*r.attribute("data", "dims")),
            (std::vector<int64_t>{4, 5, 6}));
  EXPECT_EQ(std::get<std::vector<double>>(*r.attribute("data", "weights")),
            (std::vector<double>{0.5, 0.25}));
  EXPECT_FALSE(r.attribute("data", "absent").has_value());
}

TEST_P(ShdfTest, DuplicateNameRejected) {
  Writer w(fs_, "dup.shdf", GetParam());
  w.add("x", std::vector<double>{1.0});
  EXPECT_THROW(w.add("x", std::vector<double>{2.0}), InvalidArgument);
}

TEST_P(ShdfTest, ManyDatasetsAllRecoverable) {
  constexpr int kN = 200;
  {
    Writer w(fs_, "many.shdf", GetParam());
    for (int i = 0; i < kN; ++i)
      w.add("ds_" + std::to_string(i),
            std::vector<int64_t>{i, i * 2, i * 3});
  }
  Reader r(fs_, "many.shdf");
  EXPECT_EQ(r.dataset_count(), static_cast<size_t>(kN));
  for (int i = 0; i < kN; ++i) {
    const auto v = r.read<int64_t>("ds_" + std::to_string(i));
    EXPECT_EQ(v, (std::vector<int64_t>{i, i * 2, i * 3}));
  }
}

TEST_P(ShdfTest, PrefixQueriesFollowGroupConvention) {
  {
    Writer w(fs_, "groups.shdf", GetParam());
    w.add("fluid/block_000001/coords", std::vector<double>{1});
    w.add("fluid/block_000001/field:p", std::vector<double>{2});
    w.add("fluid/block_000002/coords", std::vector<double>{3});
    w.add("solid/block_000003/coords", std::vector<double>{4});
  }
  Reader r(fs_, "groups.shdf");
  EXPECT_EQ(r.dataset_names_with_prefix("fluid/").size(), 3u);
  EXPECT_EQ(r.dataset_names_with_prefix("fluid/block_000001/").size(), 2u);
  EXPECT_EQ(r.dataset_names_with_prefix("solid/").size(), 1u);
  EXPECT_EQ(r.dataset_names_with_prefix("gas/").size(), 0u);
}

TEST_P(ShdfTest, AppendPreservesExistingDatasets) {
  {
    Writer w(fs_, "app.shdf", GetParam());
    w.add("first", std::vector<double>{1, 2});
  }
  {
    Writer w = Writer::append(fs_, "app.shdf");
    w.add("second", std::vector<double>{3, 4, 5});
  }
  {
    Writer w = Writer::append(fs_, "app.shdf");
    w.add("third", std::vector<int32_t>{6});
  }
  Reader r(fs_, "app.shdf");
  EXPECT_EQ(r.dataset_count(), 3u);
  EXPECT_EQ(r.read<double>("first"), (std::vector<double>{1, 2}));
  EXPECT_EQ(r.read<double>("second"), (std::vector<double>{3, 4, 5}));
  EXPECT_EQ(r.read<int32_t>("third"), (std::vector<int32_t>{6}));
  EXPECT_EQ(r.directory_kind(), GetParam());  // kind survives append
}

TEST_P(ShdfTest, AppendRejectsDuplicateOfExisting) {
  {
    Writer w(fs_, "app2.shdf", GetParam());
    w.add("x", std::vector<double>{1});
  }
  Writer w = Writer::append(fs_, "app2.shdf");
  EXPECT_THROW(w.add("x", std::vector<double>{2}), InvalidArgument);
}

/// Flips one payload byte of dataset `name` in `path`.
void flip_payload_byte(vfs::FileSystem& fs, const std::string& path,
                       const std::string& name, uint64_t at) {
  uint64_t off;
  {
    Reader probe(fs, path);
    off = probe.info(name).data_offset;
  }
  auto f = fs.open(path, vfs::OpenMode::kReadWrite);
  unsigned char b;
  f->seek(off + at);
  f->read(&b, 1);
  b ^= 0x01;
  f->seek(off + at);
  f->write(&b, 1);
}

/// Expects `fn` to throw FormatError whose message contains `what`.
template <typename Fn>
void expect_format_error(Fn fn, const std::string& what) {
  try {
    fn();
    ADD_FAILURE() << "no FormatError (expected '" << what << "')";
  } catch (const FormatError& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << e.what();
  }
}

TEST_P(ShdfTest, ChecksumDetectsPayloadCorruption) {
  std::vector<double> v(300);
  for (size_t i = 0; i < v.size(); ++i) v[i] = 0.5 * static_cast<double>(i);
  {
    Writer w(fs_, "corrupt.shdf", GetParam());
    w.add("x", v);
    w.add("y", v);
  }
  flip_payload_byte(fs_, "corrupt.shdf", "x", 1000);
  Reader r(fs_, "corrupt.shdf");
  EXPECT_THROW((void)r.read_raw("x"), FormatError);
  // The typed read verifies in place and fails the same way.
  expect_format_error([&] { (void)r.read<double>("x"); },
                      "checksum mismatch reading dataset 'x'");
  EXPECT_EQ(r.read<double>("y"), v);  // the neighbour is intact
}

TEST_P(ShdfTest, TypedReadOfTruncatedPayloadThrows) {
  const std::vector<double> v(1000, 2.5);
  {
    Writer w(fs_, "cut.shdf", GetParam());
    w.add("x", v);
  }
  Reader r(fs_, "cut.shdf");
  // Cut the file in the middle of the payload under the open reader (the
  // in-memory file system shares one byte store between handles).
  const uint64_t keep = r.info("x").data_offset + 100;
  std::vector<unsigned char> prefix(static_cast<size_t>(keep));
  {
    auto in = fs_.open("cut.shdf", vfs::OpenMode::kRead);
    in->read(prefix.data(), prefix.size());
  }
  fs_.open("cut.shdf", vfs::OpenMode::kTruncate)
      ->write(prefix.data(), prefix.size());
  expect_format_error([&] { (void)r.read<double>("x"); },
                      "extends past end");
  expect_format_error([&] { (void)r.read_raw("x"); }, "extends past end");
}

TEST_P(ShdfTest, ImplicitCloseOnDestruction) {
  {
    Writer w(fs_, "implicit.shdf", GetParam());
    w.add("x", std::vector<double>{9.0});
    // no close()
  }
  Reader r(fs_, "implicit.shdf");
  EXPECT_EQ(r.read<double>("x"), (std::vector<double>{9.0}));
}

TEST_P(ShdfTest, ZeroElementDataset) {
  {
    Writer w(fs_, "zero.shdf", GetParam());
    w.add("empty", std::vector<double>{});
  }
  Reader r(fs_, "zero.shdf");
  EXPECT_TRUE(r.read<double>("empty").empty());
}

INSTANTIATE_TEST_SUITE_P(DirectoryKinds, ShdfTest,
                         ::testing::Values(DirectoryKind::kLinear,
                                           DirectoryKind::kIndexed),
                         [](const auto& info) {
                           return info.param == DirectoryKind::kLinear
                                      ? "Linear"
                                      : "Indexed";
                         });

TEST(Shdf, OnDiskBytesArePinned) {
  // The bytes a writer produces are the format.  This pins them: the whole
  // file's CRC-64, computed with the bitwise reference, for both directory
  // kinds, so a change to the checksum kernels or the writer cannot alter
  // files silently.  A deliberate format change updates the constants.
  const struct {
    DirectoryKind kind;
    uint64_t size;
    uint64_t crc;
  } golden[] = {{DirectoryKind::kLinear, 7764, 0x295EC794550823E0ULL},
                {DirectoryKind::kIndexed, 7764, 0x856F560B76E6B649ULL}};
  std::vector<double> d(777);
  for (size_t i = 0; i < d.size(); ++i)
    d[i] = 0.25 * static_cast<double>(i) - 3.0;
  std::vector<int32_t> c(333);
  for (size_t i = 0; i < c.size(); ++i)
    c[i] = static_cast<int32_t>(i * 7919 % 1000);
  for (const auto& g : golden) {
    vfs::MemFileSystem fs;
    {
      Writer w(fs, "g.shdf", g.kind);
      w.add("fluid/coords", d);
      w.add("fluid/conn", c);
    }
    auto f = fs.open("g.shdf", vfs::OpenMode::kRead);
    std::vector<unsigned char> bytes(static_cast<size_t>(f->size()));
    f->read(bytes.data(), bytes.size());
    EXPECT_EQ(bytes.size(), g.size);
    EXPECT_EQ(~crc64_update_bitwise(~0ULL, bytes.data(), bytes.size()),
              g.crc);
    Reader r(fs, "g.shdf");
    EXPECT_EQ(r.read<double>("fluid/coords"), d);
    EXPECT_EQ(r.read<int32_t>("fluid/conn"), c);
  }
}

/// Sets the codec byte of the first dataset header in `path` to 1.
void plant_codec_byte(vfs::FileSystem& fs, const std::string& path) {
  // The first header follows the superblock: name (u32 length + bytes),
  // element type byte, codec byte.  Every dataset here is named "x".
  const uint64_t at = kSuperblockBytes + 4 + 1 + 1;
  auto f = fs.open(path, vfs::OpenMode::kReadWrite);
  unsigned char b = 0xFF;
  f->seek(at);
  f->read(&b, 1);
  ASSERT_EQ(b, 0);
  b = 1;
  f->seek(at);
  f->write(&b, 1);
}

TEST(Shdf, NonZeroCodecByteRejected) {
  // Payloads are stored as they are: a header whose codec byte names a
  // filter describes bytes this reader cannot interpret.
  vfs::MemFileSystem fs;
  {
    Writer w(fs, "codec.shdf");
    w.add("x", std::vector<double>{1.0, 2.0});
  }
  plant_codec_byte(fs, "codec.shdf");
  expect_format_error([&] { Reader r(fs, "codec.shdf"); },
                      "unsupported codec");
}

/// File handle that adds every byte it reads to a shared counter.
class CountingFile final : public vfs::File {
 public:
  CountingFile(std::unique_ptr<vfs::File> f, uint64_t& bytes_read)
      : f_(std::move(f)), bytes_read_(bytes_read) {}

  void writev(std::span<const ConstBuffer> segments) override {
    f_->writev(segments);
  }
  void read(void* out, size_t n) override {
    bytes_read_ += n;
    f_->read(out, n);
  }
  void seek(uint64_t pos) override { f_->seek(pos); }
  [[nodiscard]] uint64_t tell() const override { return f_->tell(); }
  [[nodiscard]] uint64_t size() const override { return f_->size(); }
  void flush() override { f_->flush(); }

 private:
  std::unique_ptr<vfs::File> f_;
  uint64_t& bytes_read_;
};

/// FileSystem decorator that counts the bytes read through its files.
class CountingFileSystem final : public vfs::FileSystem {
 public:
  explicit CountingFileSystem(vfs::FileSystem& base) : base_(base) {}

  std::unique_ptr<vfs::File> open(const std::string& path,
                                  vfs::OpenMode mode) override {
    return std::make_unique<CountingFile>(base_.open(path, mode),
                                          bytes_read);
  }
  bool exists(const std::string& path) override { return base_.exists(path); }
  void remove(const std::string& path) override { base_.remove(path); }
  std::vector<std::string> list(const std::string& prefix) override {
    return base_.list(prefix);
  }

  uint64_t bytes_read = 0;

 private:
  vfs::FileSystem& base_;
};

TEST(Shdf, InvalidHeaderFailsOnTheFirstProbe) {
  // A complete but invalid header is not a header longer than the probe
  // window: the reader must not widen the probe over the payload behind it.
  vfs::MemFileSystem fs;
  {
    Writer w(fs, "big.shdf");
    w.add("x", std::vector<double>(std::size_t{1} << 17, 1.0));  // 1 MiB
  }
  plant_codec_byte(fs, "big.shdf");
  const uint64_t directory_bytes =
      read_index(*fs.open("big.shdf", vfs::OpenMode::kRead), "big.shdf")
          .superblock.directory_bytes;

  CountingFileSystem counting(fs);
  expect_format_error([&] { Reader r(counting, "big.shdf"); },
                      "unsupported codec");
  EXPECT_LE(counting.bytes_read, kSuperblockBytes + directory_bytes + 512);
}

using testfs::CrashingFileSystem;

/// A committed window, then an append of a second one (borrowed payloads,
/// through add) that crashes at every op in turn (`once` false) or fails
/// that op alone (`once` true): the file must open to exactly the old
/// datasets or exactly the new set, with every payload intact.
void expect_old_or_new_state_after_each_fault(bool once) {
  const std::vector<std::string> old_names{"fluid/a", "fluid/b"};
  const std::vector<std::string> new_names{"fluid/a", "fluid/b", "solid/c",
                                           "solid/d", "solid/e"};
  const auto payload = [](const std::string& name) {
    return std::vector<double>(40, static_cast<double>(name.back()));
  };
  const auto commit_first = [&](vfs::FileSystem& fs) {
    Writer w(fs, "c.shdf", DirectoryKind::kIndexed);
    for (const auto& n : old_names) w.add(n, payload(n));
  };
  const auto append_second = [&](vfs::FileSystem& fs) {
    Writer w = Writer::append(fs, "c.shdf");
    for (size_t i = old_names.size(); i < new_names.size(); ++i)
      w.add(new_names[i], payload(new_names[i]));
    w.close();
  };

  uint64_t append_ops;
  {
    vfs::MemFileSystem mem;
    commit_first(mem);
    CrashingFileSystem fs(mem);
    append_second(fs);
    append_ops = fs.ops;
  }
  ASSERT_GT(append_ops, 8u);

  ScopedLogCapture quiet;  // the implicit close logs each fault
  for (uint64_t n = 0; n <= append_ops; ++n) {
    SCOPED_TRACE((once ? "fail once at op " : "crash at op ") +
                 std::to_string(n));
    vfs::MemFileSystem mem;
    commit_first(mem);
    CrashingFileSystem fs(mem);
    (once ? fs.fail_once_at : fs.crash_at) = n;
    try {
      append_second(fs);
    } catch (const IoError&) {
    }
    try {
      Reader r(mem, "c.shdf");
      const auto names = r.dataset_names();
      if (n == append_ops)
        EXPECT_EQ(names, new_names);
      else
        EXPECT_TRUE(names == old_names || names == new_names);
      for (const auto& name : names)
        EXPECT_EQ(r.read<double>(name), payload(name));
    } catch (const Error& e) {
      ADD_FAILURE() << e.what();
    }
  }
}

TEST(Shdf, IndexedAppendCrashLeavesOldOrNewState) {
  expect_old_or_new_state_after_each_fault(/*once=*/false);
}

TEST(Shdf, IndexedAppendFailedOpLeavesOldOrNewState) {
  // A writer whose write failed never commits: the destructor's implicit
  // close must not write a directory listing only the datasets before the
  // failure, although the file system works again by then.
  expect_old_or_new_state_after_each_fault(/*once=*/true);
}

TEST(Shdf, FailedWriteIsRethrownAndAbandonsTheFile) {
  vfs::MemFileSystem mem;
  CrashingFileSystem fs(mem);
  Writer w(fs, "f.shdf", DirectoryKind::kIndexed);
  fs.fail_once_at = fs.ops + 1;  // the dataset's writev (after its seek)
  EXPECT_THROW(w.add("a", std::vector<double>{1.0}), IoError);
  // The file system works again, but the writer stays failed.
  EXPECT_THROW(w.add("b", std::vector<double>{2.0}), IoError);
  EXPECT_THROW(w.close(), IoError);
  EXPECT_THROW(w.close(), IoError);
  expect_format_error([&] { Reader r(mem, "f.shdf"); },
                      "f.shdf was never committed");
}

TEST(Shdf, AbandonKeepsTheLastCommittedState) {
  vfs::MemFileSystem mem;
  {
    Writer w(mem, "f.shdf", DirectoryKind::kIndexed);
    w.add("old", std::vector<double>{1.0});
  }
  {
    Writer w = Writer::append(mem, "f.shdf");
    w.add("borrowed", std::vector<double>{2.0});
    BufferChain owned;
    owned.append(SharedBuffer::copy_of(std::vector<double>{3.0}.data(), 8));
    w.put_dataset(DatasetDef{"owned", DataType::kFloat64, {1}, {}}, owned);
    w.abandon();
    w.close();  // closed by abandon(): writes nothing
  }
  Reader r(mem, "f.shdf");
  EXPECT_EQ(r.dataset_names(), (std::vector<std::string>{"old"}));

  ScopedLogCapture log;
  {
    Writer w(mem, "new.shdf", DirectoryKind::kIndexed);
    w.add("x", std::vector<double>{1.0});
    w.abandon();
  }
  EXPECT_FALSE(log.contains("new.shdf"));  // dropped on purpose: not logged
  expect_format_error([&] { Reader r2(mem, "new.shdf"); },
                      "new.shdf was never committed");
}

TEST(Shdf, QueuedOwnedPayloadOutlivesItsCaller) {
  // The writer queues owned payloads past put_dataset and must keep them
  // alive itself: every caller reference is gone before close() writes
  // them (ASan reports a use after free otherwise).
  std::vector<double> expect(5000);
  for (size_t i = 0; i < expect.size(); ++i) expect[i] = 0.5 * double(i);
  vfs::MemFileSystem mem;
  Writer w(mem, "f.shdf", DirectoryKind::kIndexed);
  {
    SharedBuffer bytes =
        SharedBuffer::copy_of(expect.data(), expect.size() * sizeof(double));
    BufferChain chain;
    chain.append(bytes.slice(0, 16000));
    chain.append(bytes.slice(16000, bytes.size() - 16000));
    w.put_dataset(DatasetDef{"v", DataType::kFloat64, {expect.size()}, {}},
                  chain);
    EXPECT_EQ(bytes.use_count(), 5);  // this one, the chain's two, the queue's
  }
  w.close();
  Reader r(mem, "f.shdf");
  EXPECT_EQ(r.read<double>("v"), expect);
}

TEST(Shdf, PayloadOfMoreSegmentsThanOneGatherTakes) {
  // 3000 one-element segments, owned and then borrowed: more than IOV_MAX,
  // so each dataset takes several writes.
  std::vector<double> values(3000);
  std::iota(values.begin(), values.end(), 1.0);
  const SharedBuffer bytes = SharedBuffer::copy_of(values.data(), 3000 * 8);
  BufferChain owned, borrowed;
  for (size_t i = 0; i < values.size(); ++i) {
    owned.append(bytes.slice(8 * i, 8));
    borrowed.append_borrowed(&values[i], 8);
  }
  vfs::MemFileSystem mem;
  {
    Writer w(mem, "f.shdf", DirectoryKind::kIndexed);
    w.add("first", std::vector<double>{0.5});
    w.put_dataset(DatasetDef{"owned", DataType::kFloat64, {3000}, {}}, owned);
    w.put_dataset(DatasetDef{"borrowed", DataType::kFloat64, {3000}, {}},
                  borrowed);
    w.add("last", std::vector<double>{-0.5});
  }
  Reader r(mem, "f.shdf");
  EXPECT_EQ(r.read<double>("first"), std::vector<double>{0.5});
  EXPECT_EQ(r.read<double>("owned"), values);
  EXPECT_EQ(r.read<double>("borrowed"), values);
  EXPECT_EQ(r.read<double>("last"), std::vector<double>{-0.5});
}

TEST(Shdf, BorrowedPayloadIsWrittenBeforePutDatasetReturns) {
  // A borrowed segment after queued owned ones: put_dataset writes the
  // queue and the borrowed bytes before it returns, so the caller may
  // overwrite its array at once.
  vfs::MemFileSystem mem;
  Writer w(mem, "f.shdf", DirectoryKind::kIndexed);
  const std::vector<double> first{1.0, 2.0, 3.0};
  BufferChain owned;
  owned.append(SharedBuffer::copy_of(first.data(), 24));
  w.put_dataset(DatasetDef{"owned", DataType::kFloat64, {3}, {}}, owned);
  std::vector<double> source{4.0, 5.0, 6.0, 7.0};
  BufferChain mixed;
  mixed.append(SharedBuffer::copy_of(source.data(), 16));
  mixed.append_borrowed(source.data() + 2, 16);
  w.put_dataset(DatasetDef{"mixed", DataType::kFloat64, {4}, {}}, mixed);
  std::fill(source.begin(), source.end(), -1.0);
  w.close();
  Reader r(mem, "f.shdf");
  EXPECT_EQ(r.read<double>("owned"), first);
  EXPECT_EQ(r.read<double>("mixed"), (std::vector<double>{4.0, 5.0, 6.0, 7.0}));
}

TEST(Shdf, NeverCommittedFileSaysSo) {
  // A kIndexed writer that stops before its first close() leaves the
  // placeholder superblock, which points at no directory.
  vfs::MemFileSystem mem;
  {
    ScopedLogCapture quiet;  // the implicit close logs the crash
    CrashingFileSystem fs(mem);
    Writer w(fs, "new.shdf", DirectoryKind::kIndexed);
    w.add("x", std::vector<double>{1.0, 2.0});
    fs.crash_at = fs.ops;
  }
  expect_format_error([&] { Reader r(mem, "new.shdf"); },
                      "new.shdf was never committed");
  expect_format_error([&] { (void)Writer::append(mem, "new.shdf"); },
                      "new.shdf was never committed");
}

TEST(Shdf, NotAnShdfFileRejected) {
  vfs::MemFileSystem fs;
  {
    auto f = fs.open("junk.bin", vfs::OpenMode::kTruncate);
    const std::string junk(1024, 'J');
    f->write(junk.data(), junk.size());
  }
  EXPECT_THROW(Reader(fs, "junk.bin"), FormatError);
}

TEST(Shdf, TruncatedFileRejected) {
  vfs::MemFileSystem fs;
  {
    Writer w(fs, "full.shdf");
    w.add("x", std::vector<double>(100, 1.0));
  }
  // Copy only the first half of the bytes into a new file.
  {
    auto in = fs.open("full.shdf", vfs::OpenMode::kRead);
    std::vector<unsigned char> half(in->size() / 2);
    in->read(half.data(), half.size());
    auto out = fs.open("half.shdf", vfs::OpenMode::kTruncate);
    out->write(half.data(), half.size());
  }
  EXPECT_THROW(Reader(fs, "half.shdf"), Error);
}

TEST(Shdf, LinearModeKeepsDirectoryCurrentAfterEveryAppend) {
  // A kLinear file is readable even if the writer never closes (HDF4-like
  // on-disk bookkeeping): the directory written after the last add is
  // complete.
  vfs::MemFileSystem fs;
  auto w = std::make_unique<Writer>(fs, "live.shdf", DirectoryKind::kLinear);
  w->add("a", std::vector<double>{1});
  w->add("b", std::vector<double>{2});
  {
    Reader r(fs, "live.shdf");
    EXPECT_EQ(r.dataset_count(), 2u);
    EXPECT_EQ(r.read<double>("b"), (std::vector<double>{2}));
  }
  w.reset();
}

TEST(Shdf, IndexedLookupIsNameOrderIndependent) {
  vfs::MemFileSystem fs;
  {
    Writer w(fs, "ord.shdf", DirectoryKind::kIndexed);
    w.add("zeta", std::vector<double>{1});
    w.add("alpha", std::vector<double>{2});
    w.add("mid", std::vector<double>{3});
  }
  Reader r(fs, "ord.shdf");
  EXPECT_EQ(r.read<double>("zeta"), (std::vector<double>{1}));
  EXPECT_EQ(r.read<double>("alpha"), (std::vector<double>{2}));
  EXPECT_EQ(r.read<double>("mid"), (std::vector<double>{3}));
  // Indexed directory lists names sorted.
  const auto names = r.dataset_names();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(Shdf, LargeDatasetHeaderWithManyAttributes) {
  // Exceeds the reader's 64 KiB header probe window to exercise the re-read
  // path.
  vfs::MemFileSystem fs;
  {
    Writer w(fs, "big_header.shdf");
    std::vector<Attribute> attrs;
    attrs.push_back(
        Attribute{"huge", std::vector<double>(20000, 0.5)});  // 160 KB attr
    w.add("x", std::vector<double>{1.0, 2.0}, std::move(attrs));
  }
  Reader r(fs, "big_header.shdf");
  EXPECT_EQ(r.read<double>("x"), (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(std::get<std::vector<double>>(*r.attribute("x", "huge")).size(),
            20000u);
}

TEST(Shdf, WorksOnPosixFilesToo) {
  vfs::PosixFileSystem fs("/tmp/rocpio_shdf_test");
  {
    Writer w(fs, "posix.shdf");
    w.add("x", std::vector<double>{7.0});
  }
  Reader r(fs, "posix.shdf");
  EXPECT_EQ(r.read<double>("x"), (std::vector<double>{7.0}));
  fs.remove("posix.shdf");
}

}  // namespace
}  // namespace roc::shdf
