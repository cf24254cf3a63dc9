// rsnsec — command-line front end for the secure-data-flow library.
//
//   rsnsec generate --benchmark MBIST_2_5_5 --scale 0.5 --seed 7
//          --out-rsn net.rsn --out-verilog ckt.v --out-spec policy.spec
//   rsnsec info --rsn net.rsn
//   rsnsec analyze --rsn net.rsn --verilog ckt.v --spec policy.spec
//   rsnsec secure  --rsn net.rsn --verilog ckt.v --spec policy.spec
//          --out net_secure.rsn --jobs 8
//   rsnsec lint net.rsn ckt.v policy.spec
//   rsnsec serve --socket /tmp/rsnsec.sock --store /var/cache/rsnsec
//
// secure/lint accept --jobs N (omitted = auto from RSNSEC_JOBS /
// hardware concurrency) for resolution trials and lint passes; results
// are bit-identical for any thread count. analyze accepts --jobs too,
// with no effect: the dependency analysis runs on the calling thread.
//
// serve is the long-running daemon form: line-delimited JSON requests
// (analyze/secure/certify/attack/stats) over a unix or loopback-TCP
// socket, one shared artifact store and thread pool across all clients.

#include <iostream>
#include <vector>

#include "tools/cli.hpp"

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) {
    std::cerr << "usage: rsnsec <generate|info|analyze|secure|certify|"
                 "attack|lint|store|bench|serve> [options]\n"
                 "see tools/cli.hpp for the full option list\n";
    return 1;
  }
  return rsnsec::cli::run(args, std::cout, std::cerr);
}
