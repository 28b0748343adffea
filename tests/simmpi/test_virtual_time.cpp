// Tests for the virtual-time engine: explicit charges, the α–β cost model,
// barrier release semantics, heterogeneous slowdowns, and makespan — the
// machinery every figure bench's timing rests on.
#include <gtest/gtest.h>

#include <vector>

#include "simmpi/cluster.hpp"

namespace lbe::mpi {
namespace {

ClusterOptions base_options(int ranks) {
  ClusterOptions options;
  options.ranks = ranks;
  options.engine = Engine::kVirtual;
  options.measured_time = false;
  options.cost = CostModel::zero();
  return options;
}

TEST(VirtualTime, ChargeAdvancesOwnClockOnly) {
  Cluster cluster(base_options(3));
  cluster.run([&](Comm& comm) {
    if (comm.rank() == 1) comm.charge(2.5);
  });
  EXPECT_DOUBLE_EQ(cluster.reports()[0].vclock, 0.0);
  EXPECT_DOUBLE_EQ(cluster.reports()[1].vclock, 2.5);
  EXPECT_DOUBLE_EQ(cluster.reports()[2].vclock, 0.0);
  EXPECT_DOUBLE_EQ(cluster.makespan(), 2.5);
}

TEST(VirtualTime, ChargesAccumulate) {
  Cluster cluster(base_options(1));
  cluster.run([&](Comm& comm) {
    comm.charge(1.0);
    comm.charge(0.5);
    EXPECT_DOUBLE_EQ(comm.vclock(), 1.5);
  });
  EXPECT_DOUBLE_EQ(cluster.makespan(), 1.5);
}

TEST(VirtualTime, NegativeChargeRejected) {
  Cluster cluster(base_options(1));
  EXPECT_THROW(cluster.run([&](Comm& comm) { comm.charge(-1.0); }),
               CommError);
}

TEST(VirtualTime, SendChargesAlphaBetaToSender) {
  ClusterOptions options = base_options(2);
  options.cost.latency = 1.0;
  options.cost.seconds_per_byte = 0.5;
  Cluster cluster(options);
  cluster.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 1, Bytes(10));  // cost = 1.0 + 10 * 0.5 = 6.0
    } else {
      comm.recv(0, 1);
    }
  });
  EXPECT_DOUBLE_EQ(cluster.reports()[0].vclock, 6.0);
  // Receiver clock advances to the message availability time.
  EXPECT_DOUBLE_EQ(cluster.reports()[1].vclock, 6.0);
}

TEST(VirtualTime, ReceiverNotRolledBackIfAlreadyLater) {
  ClusterOptions options = base_options(2);
  options.cost.latency = 1.0;
  Cluster cluster(options);
  cluster.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 1, Bytes{});  // available at t=1
    } else {
      comm.charge(10.0);
      comm.recv(0, 1);
      EXPECT_DOUBLE_EQ(comm.vclock(), 10.0);  // max(10, 1) = 10
    }
  });
}

TEST(VirtualTime, ReceiverWaitsForwardsClock) {
  ClusterOptions options = base_options(2);
  Cluster cluster(options);
  cluster.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      comm.charge(5.0);  // compute before sending
      comm.send(1, 1, Bytes{});
    } else {
      comm.recv(0, 1);
      EXPECT_DOUBLE_EQ(comm.vclock(), 5.0);  // waited for the sender
    }
  });
}

TEST(VirtualTime, BarrierReleasesAllAtMaxArrival) {
  ClusterOptions options = base_options(4);
  Cluster cluster(options);
  std::vector<double> after(4);
  cluster.run([&](Comm& comm) {
    comm.charge(static_cast<double>(comm.rank()));  // 0, 1, 2, 3
    comm.barrier();
    after[static_cast<std::size_t>(comm.rank())] = comm.vclock();
  });
  for (const double t : after) EXPECT_DOUBLE_EQ(t, 3.0);
}

TEST(VirtualTime, BarrierCostAddsLogTerm) {
  ClusterOptions options = base_options(4);
  options.cost.latency = 1.0;  // barrier(4) = 1.0 * ceil(log2(4)) = 2.0
  Cluster cluster(options);
  std::vector<double> after(4);
  cluster.run([&](Comm& comm) {
    comm.barrier();
    after[static_cast<std::size_t>(comm.rank())] = comm.vclock();
  });
  for (const double t : after) EXPECT_DOUBLE_EQ(t, 2.0);
}

TEST(VirtualTime, SlowdownScalesMeasuredTime) {
  // With measured time ON and a 3x slowdown on rank 1, equal work costs
  // rank 1 exactly 3x the virtual seconds of rank 0. The injected clock
  // makes "equal work" exact: each rank's body advances it by one second,
  // and the virtual engine runs one rank at a time.
  double fake_now = 100.0;
  ClusterOptions options;
  options.ranks = 2;
  options.engine = Engine::kVirtual;
  options.measured_time = true;
  options.cost = CostModel::zero();
  options.slowdown = {1.0, 3.0};
  options.clock = [&fake_now] { return fake_now; };
  Cluster cluster(options);
  cluster.run([&](Comm& /*comm*/) { fake_now += 1.0; });
  const double t0 = cluster.reports()[0].vclock;
  const double t1 = cluster.reports()[1].vclock;
  EXPECT_DOUBLE_EQ(t0, 1.0);
  EXPECT_DOUBLE_EQ(t1, 3.0 * t0);
}

TEST(VirtualTime, MeasuredTimeProducesNonZeroClocks) {
  ClusterOptions options;
  options.ranks = 2;
  options.engine = Engine::kVirtual;
  options.measured_time = true;
  options.cost = CostModel::zero();
  Cluster cluster(options);
  cluster.run([&](Comm&) {
    volatile double sink = 0.0;
    for (int i = 0; i < 500000; ++i) sink = sink + 1.0;
  });
  EXPECT_GT(cluster.reports()[0].vclock, 0.0);
  EXPECT_GT(cluster.reports()[1].vclock, 0.0);
}

TEST(VirtualTime, ResetClocksZeroesState) {
  Cluster cluster(base_options(2));
  cluster.run([&](Comm& comm) { comm.charge(1.0); });
  EXPECT_GT(cluster.makespan(), 0.0);
  cluster.reset_clocks();
  cluster.run([&](Comm&) {});
  EXPECT_DOUBLE_EQ(cluster.makespan(), 0.0);
}

TEST(VirtualTime, ReportsCountMessagesAndBytes) {
  Cluster cluster(base_options(2));
  cluster.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 1, Bytes(100));
      comm.send(1, 1, Bytes(50));
    } else {
      comm.recv(0, 1);
      comm.recv(0, 1);
    }
  });
  EXPECT_EQ(cluster.reports()[0].messages_sent, 2u);
  EXPECT_EQ(cluster.reports()[0].bytes_sent, 150u);
  EXPECT_EQ(cluster.reports()[1].messages_received, 2u);
}

TEST(VirtualTime, FaultDelayPostponesAvailability) {
  ClusterOptions options = base_options(2);
  options.faults.delay = [](const Envelope&) { return 4.0; };
  Cluster cluster(options);
  cluster.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 1, Bytes{});
    } else {
      comm.recv(0, 1);
      EXPECT_DOUBLE_EQ(comm.vclock(), 4.0);
    }
  });
}

TEST(VirtualTime, SchedulerPrefersLaggingRank) {
  // Two workers charge different amounts, then both send to a collector.
  // The collector must observe availability times consistent with each
  // sender's own clock (lower-clock rank scheduled first is an internal
  // detail; availability is what the model guarantees).
  Cluster cluster(base_options(3));
  std::vector<double> availability(2);
  cluster.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 2; ++i) {
        RecvInfo info;
        comm.recv(kAnySource, 1, &info);
        // vclock now >= sender's send time.
      }
    } else {
      comm.charge(comm.rank() == 1 ? 1.0 : 7.0);
      comm.send(0, 1, Bytes{});
      availability[static_cast<std::size_t>(comm.rank() - 1)] = comm.vclock();
    }
  });
  EXPECT_DOUBLE_EQ(availability[0], 1.0);
  EXPECT_DOUBLE_EQ(availability[1], 7.0);
  // Collector ends at the latest availability.
  EXPECT_DOUBLE_EQ(cluster.reports()[0].vclock, 7.0);
}

TEST(CostModel, TransferAndBarrierFormulas) {
  CostModel model;
  model.latency = 2.0;
  model.seconds_per_byte = 0.25;
  EXPECT_DOUBLE_EQ(model.transfer(8), 4.0);
  EXPECT_DOUBLE_EQ(model.transfer(0), 2.0);
  EXPECT_DOUBLE_EQ(model.barrier(1), 0.0);
  EXPECT_DOUBLE_EQ(model.barrier(2), 2.0);   // ceil(log2 2) = 1
  EXPECT_DOUBLE_EQ(model.barrier(4), 4.0);   // 2
  EXPECT_DOUBLE_EQ(model.barrier(5), 6.0);   // 3
  EXPECT_DOUBLE_EQ(model.barrier(16), 8.0);  // 4
  const CostModel zero = CostModel::zero();
  EXPECT_DOUBLE_EQ(zero.transfer(1000), 0.0);
}

}  // namespace
}  // namespace lbe::mpi
