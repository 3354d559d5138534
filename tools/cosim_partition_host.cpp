/**
 * @file
 * Standalone partition host: rebuild one hardware partition of a
 * named workload and serve it over framed loopback TCP to a
 * coordinating co-simulation (CosimConfig::remoteEndpoints). This is
 * the exec'd counterpart of the fork-flavor remote transports — the
 * two processes share no memory, so agreement is established by the
 * handshake: the host computes its own program signature from the
 * workload it elaborated, and a coordinator that elaborated anything
 * else (different partitioning, scene size, stage domains) is
 * refused before any payload flows.
 *
 * The host always clocks the partition with the interpreted ClockSim
 * (cycle-exact against the compiled clock edge). Forked partition
 * children instead build whatever executor the coordinator's
 * CosimConfig::hwBackend names; that path needs the coordinator's
 * compiled artifact, which an independently started host does not
 * share.
 *
 * Run: cosim_partition_host --workload vorbis_B --domain HW
 *          [--port 0] [--once]
 *      cosim_partition_host --workload ray_split --domain HWT
 *          [--ray-size 32] [--ray-prims 1024] [--seed N]
 *
 * Prints "LISTENING <port>" on stdout once bound; serves one
 * connection at a time until killed (or exactly one with --once).
 * Workload names and the default seed come from the workload
 * registry (workloads/workload.hpp): vorbis_<letter>, vorbis_split,
 * ray_<letter>, ray_split — the names every bench uses.
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>

#include "hwsim/clocksim.hpp"
#include "platform/net_transport.hpp"
#include "platform/remote_partition.hpp"
#include "workloads/workload.hpp"

using namespace bcl;

int
main(int argc, char **argv)
{
    std::string workload;
    std::string domain = "HW";
    int port = 0;
    WorkloadSize size;
    std::optional<std::uint64_t> seed;
    int timeout_ms = 30000;
    bool once = false;
    for (int i = 1; i < argc; i++) {
        if (std::strcmp(argv[i], "--workload") == 0 && i + 1 < argc)
            workload = argv[++i];
        else if (std::strcmp(argv[i], "--domain") == 0 && i + 1 < argc)
            domain = argv[++i];
        else if (std::strcmp(argv[i], "--port") == 0 && i + 1 < argc)
            port = std::atoi(argv[++i]);
        else if (std::strcmp(argv[i], "--ray-size") == 0 &&
                 i + 1 < argc)
            size.side = std::atoi(argv[++i]);
        else if (std::strcmp(argv[i], "--ray-prims") == 0 &&
                 i + 1 < argc)
            size.prims = std::atoi(argv[++i]);
        else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc)
            seed = static_cast<std::uint64_t>(
                std::strtoull(argv[++i], nullptr, 10));
        else if (std::strcmp(argv[i], "--timeout-ms") == 0 &&
                 i + 1 < argc)
            timeout_ms = std::atoi(argv[++i]);
        else if (std::strcmp(argv[i], "--once") == 0)
            once = true;
        else {
            std::fprintf(stderr, "unknown flag %s\n", argv[i]);
            return 64;
        }
    }
    if (workload.empty()) {
        std::fprintf(stderr,
                     "usage: cosim_partition_host --workload NAME "
                     "--domain DOM [--port 0] [--once]\n");
        return 64;
    }
    (void)port;  // ephemeral only: the coordinator reads our stdout

    const NamedWorkload &nw = findWorkload(workload);
    ElabProgram part =
        partitionWorkload(*nw.workload, nw.partition->domains, size,
                          seed.value_or(nw.workload->defaultSeed))
            .part(domain)
            .prog;
    std::printf("partition %s/%s: %zu prims, %zu rules, signature "
                "%016llx, ABI %d\n",
                workload.c_str(), domain.c_str(), part.prims.size(),
                part.rules.size(),
                static_cast<unsigned long long>(
                    programSignature(part)),
                kCppGenAbiVersion);

    TcpListener listener;
    if (!listener.open()) {
        std::fprintf(stderr, "could not open a loopback listener\n");
        return 1;
    }
    std::printf("LISTENING %u\n", listener.port());
    std::fflush(stdout);

    for (;;) {
        int fd = listener.acceptWithin(timeout_ms);
        if (fd < 0) {
            std::fprintf(stderr, "accept timed out — exiting\n");
            return once ? 1 : 0;
        }
        TcpRemoteLink link(fd);
        int rc = servePartitionSlices(
            link, part, timeout_ms, [&part](Store &store) {
                return std::make_unique<ClockSim>(part, store);
            });
        std::printf("connection closed (rc %d)\n", rc);
        std::fflush(stdout);
        if (once)
            return rc;
    }
}
