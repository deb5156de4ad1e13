// Tests for the HRM: staging to cache, cache hits, coalescing, pin/release,
// the RPC client, and GridFTP visibility of staged files.
#include <gtest/gtest.h>

#include "grid_fixture.hpp"
#include "hrm/hrm.hpp"

namespace eh = esg::hrm;
namespace ec = esg::common;
namespace est = esg::storage;
using ec::kSecond;
using esg::testing::MiniGrid;

namespace {

eh::HrmConfig small_hrm(ec::Bytes cache = 100'000'000) {
  eh::HrmConfig cfg;
  cfg.cache_capacity = cache;
  cfg.tape.drives = 1;
  cfg.tape.mount_time = 30 * kSecond;
  cfg.tape.avg_seek = 10 * kSecond;
  cfg.tape.read_rate = 10'000'000;  // 10 MB/s
  return cfg;
}

}  // namespace

TEST(Hrm, StageMissReadsTape) {
  MiniGrid grid({"lbnl"});
  auto* server = grid.servers.at("lbnl.host").get();
  eh::HrmService hrm(grid.orb, server->host(), server->storage_ptr(),
                     small_hrm());
  hrm.archive(est::FileObject::synthetic("runs/ocean.ncx", 50'000'000));
  EXPECT_EQ(hrm.status("runs/ocean.ncx"), "archived");
  bool done = false;
  hrm.stage("runs/ocean.ncx", [&](ec::Result<ec::Bytes> r) {
    ASSERT_TRUE(r.ok()) << r.error().to_string();
    EXPECT_EQ(*r, 50'000'000);
    done = true;
  });
  grid.sim.run();
  ASSERT_TRUE(done);
  // mount 30 + seek 10 + read 5 = 45 s.
  EXPECT_EQ(grid.sim.now(), 45 * kSecond);
  EXPECT_EQ(hrm.status("runs/ocean.ncx"), "cached");
  EXPECT_EQ(hrm.cache_misses(), 1u);
  // Staged file is now visible in the GridFTP-served namespace.
  EXPECT_EQ(server->storage().size_of("runs/ocean.ncx").value_or(0),
            50'000'000);
}

TEST(Hrm, StageHitIsFast) {
  MiniGrid grid({"lbnl"});
  auto* server = grid.servers.at("lbnl.host").get();
  eh::HrmService hrm(grid.orb, server->host(), server->storage_ptr(),
                     small_hrm());
  hrm.archive(est::FileObject::synthetic("f", 10'000'000));
  bool first = false;
  hrm.stage("f", [&](ec::Result<ec::Bytes> r) {
    ASSERT_TRUE(r.ok());
    first = true;
  });
  grid.sim.run();
  ASSERT_TRUE(first);
  const auto t_after_miss = grid.sim.now();
  bool second = false;
  hrm.stage("f", [&](ec::Result<ec::Bytes> r) {
    ASSERT_TRUE(r.ok());
    second = true;
  });
  grid.sim.run();
  ASSERT_TRUE(second);
  EXPECT_LT(grid.sim.now() - t_after_miss, kSecond);  // cache hit, ~1 ms
  EXPECT_EQ(hrm.cache_hits(), 1u);
}

TEST(Hrm, ConcurrentStagesCoalesceOntoOneTapeRead) {
  MiniGrid grid({"lbnl"});
  auto* server = grid.servers.at("lbnl.host").get();
  eh::HrmService hrm(grid.orb, server->host(), server->storage_ptr(),
                     small_hrm());
  hrm.archive(est::FileObject::synthetic("f", 10'000'000));
  int done = 0;
  for (int i = 0; i < 3; ++i) {
    hrm.stage("f", [&](ec::Result<ec::Bytes> r) {
      ASSERT_TRUE(r.ok());
      ++done;
    });
  }
  EXPECT_EQ(hrm.status("f"), "staging");
  grid.sim.run();
  EXPECT_EQ(done, 3);
  EXPECT_EQ(hrm.tape().stages_completed(), 1u);  // one read served all three
  EXPECT_EQ(hrm.cache().pin_count("f"), 3);      // one pin per waiter
}

TEST(Hrm, ReleaseUnpinsAllowingEviction) {
  MiniGrid grid({"lbnl"});
  auto* server = grid.servers.at("lbnl.host").get();
  eh::HrmService hrm(grid.orb, server->host(), server->storage_ptr(),
                     small_hrm(60'000'000));
  hrm.archive(est::FileObject::synthetic("a", 50'000'000));
  hrm.archive(est::FileObject::synthetic("b", 50'000'000));
  bool a_done = false;
  hrm.stage("a", [&](ec::Result<ec::Bytes> r) {
    ASSERT_TRUE(r.ok());
    a_done = true;
  });
  grid.sim.run();
  ASSERT_TRUE(a_done);
  // While `a` is pinned, staging `b` cannot fit -> error.
  bool b_failed = false;
  hrm.stage("b", [&](ec::Result<ec::Bytes> r) {
    b_failed = !r.ok();
  });
  grid.sim.run();
  ASSERT_TRUE(b_failed);
  // Release `a`; staging `b` now evicts it (and removes it from the served
  // namespace).
  ASSERT_TRUE(hrm.release("a").ok());
  bool b_done = false;
  hrm.stage("b", [&](ec::Result<ec::Bytes> r) {
    ASSERT_TRUE(r.ok());
    b_done = true;
  });
  grid.sim.run();
  ASSERT_TRUE(b_done);
  EXPECT_EQ(hrm.status("a"), "archived");  // evicted from cache, still on tape
  EXPECT_FALSE(server->storage().exists("a"));
  EXPECT_TRUE(server->storage().exists("b"));
}

TEST(Hrm, StageUnknownFileFails) {
  MiniGrid grid({"lbnl"});
  auto* server = grid.servers.at("lbnl.host").get();
  eh::HrmService hrm(grid.orb, server->host(), server->storage_ptr(),
                     small_hrm());
  bool done = false;
  hrm.stage("ghost", [&](ec::Result<ec::Bytes> r) {
    done = true;
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, ec::Errc::not_found);
  });
  grid.sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(hrm.status("ghost"), "absent");
}

TEST(HrmClient, RemoteStageAndRelease) {
  MiniGrid grid({"lbnl"});
  auto* server = grid.servers.at("lbnl.host").get();
  eh::HrmService hrm(grid.orb, server->host(), server->storage_ptr(),
                     small_hrm());
  hrm.archive(est::FileObject::synthetic("f", 20'000'000));
  eh::HrmClient client(grid.orb, *grid.client_host, server->host());
  bool staged = false;
  client.stage("f", [&](ec::Result<ec::Bytes> r) {
    ASSERT_TRUE(r.ok()) << r.error().to_string();
    EXPECT_EQ(*r, 20'000'000);
    staged = true;
  });
  grid.sim.run();
  ASSERT_TRUE(staged);
  bool status_ok = false;
  client.status("f", [&](ec::Result<std::string> r) {
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, "cached");
    status_ok = true;
  });
  grid.sim.run();
  ASSERT_TRUE(status_ok);
  bool released = false;
  client.release("f", [&](ec::Status st) {
    ASSERT_TRUE(st.ok());
    released = true;
  });
  grid.sim.run();
  EXPECT_TRUE(released);
  EXPECT_EQ(hrm.cache().pin_count("f"), 0);
}

TEST(Hrm, StagedFileFetchableViaGridFtp) {
  MiniGrid grid({"lbnl"});
  auto* server = grid.servers.at("lbnl.host").get();
  eh::HrmService hrm(grid.orb, server->host(), server->storage_ptr(),
                     small_hrm());
  hrm.archive(est::FileObject::synthetic("runs/x.ncx", 10'000'000));
  bool fetched = false;
  eh::HrmClient client(grid.orb, *grid.client_host, server->host());
  client.stage("runs/x.ncx", [&](ec::Result<ec::Bytes> r) {
    ASSERT_TRUE(r.ok());
    grid.client->get({"lbnl.host", "runs/x.ncx"}, "x.ncx", {},
                     [&](esg::gridftp::TransferResult tr) {
                       ASSERT_TRUE(tr.status.ok())
                           << tr.status.error().to_string();
                       fetched = true;
                     });
  });
  grid.sim.run();
  EXPECT_TRUE(fetched);
  EXPECT_EQ(grid.client->local_storage().size_of("x.ncx").value_or(0),
            10'000'000);
}
