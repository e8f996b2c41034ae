// util::io::BlobDir: the listing (blobs only, sorted by stem), removal, the
// dead-writer temp sweep, and the breaker's write/read policy.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "util/failpoint.h"
#include "util/guarded_io.h"

namespace fbist::util::io {
namespace {

namespace fs = std::filesystem;

std::string scratch_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "fbist_blob_" + name;
  fs::remove_all(dir);
  return dir;
}

void plant(const std::string& path, const std::string& text) {
  std::ofstream(path) << text;
}

BlobDir blob_dir(const std::string& dir) {
  return BlobDir(dir, ".blob", "test blobs", "blobs degrade");
}

TEST(BlobDir, ListSkipsTempsAndForeignFilesSortedByStem) {
  const std::string dir = scratch_dir("list");
  BlobDir blobs = blob_dir(dir);
  EXPECT_TRUE(blobs.list().empty());  // missing directory lists empty
  ASSERT_TRUE(blobs.create());
  blobs.write("cache.disk_write", "charlie", "ccc");
  blobs.write("cache.disk_write", "alpha", "a");
  blobs.write("cache.disk_write", "bravo", "bb");
  plant(dir + "/delta.blob.tmp.4194303", "torn");
  plant(dir + "/echo.other", "foreign suffix");
  plant(dir + "/foxtrot", "no suffix");

  const std::vector<BlobDir::Entry> entries = blobs.list();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].stem, "alpha");
  EXPECT_EQ(entries[1].stem, "bravo");
  EXPECT_EQ(entries[2].stem, "charlie");
  EXPECT_EQ(entries[1].path, blobs.path("bravo"));
  EXPECT_EQ(entries[1].bytes, 2u);
  EXPECT_EQ(blobs.read("cache.disk_read", "charlie", false), "ccc");
  fs::remove_all(dir);
}

TEST(BlobDir, RemoveDeletesABlob) {
  const std::string dir = scratch_dir("remove");
  BlobDir blobs = blob_dir(dir);
  ASSERT_TRUE(blobs.create());
  blobs.write("cache.disk_write", "alpha", "a");
  EXPECT_TRUE(blobs.exists("alpha"));
  EXPECT_TRUE(blobs.remove("alpha"));
  EXPECT_FALSE(blobs.exists("alpha"));
  EXPECT_FALSE(blobs.remove("alpha"));
  EXPECT_TRUE(blobs.list().empty());
  fs::remove_all(dir);
}

TEST(BlobDir, SweepRemovesOnlyDeadWritersTemps) {
  const std::string dir = scratch_dir("sweep");
  const BlobDir blobs = blob_dir(dir);
  EXPECT_EQ(blobs.sweep_stale_temps("test"), 0u);  // missing directory
  ASSERT_TRUE(blobs.create());
  // pid 4194303 (the kernel pid_max ceiling) is certainly dead; our
  // parent is alive; our own temp is an in-flight write.
  const std::string dead = dir + "/a.blob.tmp.4194303";
  const std::string live = dir + "/b.blob.tmp." + std::to_string(::getppid());
  const std::string own = dir + "/c.blob.tmp." + std::to_string(::getpid());
  const std::string foreign = dir + "/d.other.tmp.4194303";
  const std::string malformed = dir + "/e.blob.tmp.4194303x";
  for (const std::string& p : {dead, live, own, foreign, malformed}) {
    plant(p, "temp");
  }

  EXPECT_EQ(blobs.sweep_stale_temps("test"), 1u);
  EXPECT_FALSE(fs::exists(dead));
  EXPECT_TRUE(fs::exists(live));
  EXPECT_TRUE(fs::exists(own));
  EXPECT_TRUE(fs::exists(foreign));    // another suffix: not our temp
  EXPECT_TRUE(fs::exists(malformed));  // no pid: not a temp at all
  EXPECT_EQ(blobs.sweep_stale_temps("test"), 0u);
  fs::remove_all(dir);
}

// Write give-ups always charge the breaker; read give-ups only when the
// caller asks (the checkpoint store does not, the cache does).
TEST(BlobDir, BreakerChargesWritesAndOptInReads) {
  if (!failpoint::compiled_in()) GTEST_SKIP() << "failpoints compiled out";
  const std::string dir = scratch_dir("breaker");
  BlobDir blobs = blob_dir(dir);
  ASSERT_TRUE(blobs.create());
  blobs.write("cache.disk_write", "alpha", "a");

  failpoint::configure("cache.disk_read=perm(1);cache.disk_write=perm(1)");
  for (int i = 0; i < 5; ++i) {
    EXPECT_THROW(blobs.read("cache.disk_read", "alpha", false), IoError);
  }
  EXPECT_FALSE(blobs.degraded());
  EXPECT_THROW(blobs.read("cache.disk_read", "alpha", true), IoError);
  EXPECT_THROW(blobs.write("cache.disk_write", "bravo", "b"), IoError);
  EXPECT_FALSE(blobs.degraded());
  EXPECT_THROW(blobs.write("cache.disk_write", "bravo", "b"), IoError);
  EXPECT_TRUE(blobs.degraded());
  failpoint::clear();
  fs::remove_all(dir);
}

}  // namespace
}  // namespace fbist::util::io
