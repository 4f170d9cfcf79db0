#include "src/cluster/hardware.h"

#include "src/common/logging.h"

namespace laminar {

ClusterSpec ClusterSpec::ForGpus(int total_gpus) {
  ClusterSpec spec;
  LAMINAR_CHECK_GT(total_gpus, 0);
  LAMINAR_CHECK_EQ(total_gpus % spec.machine.gpus_per_machine, 0)
      << "total GPUs must be a multiple of GPUs per machine";
  spec.num_machines = total_gpus / spec.machine.gpus_per_machine;
  return spec;
}

}  // namespace laminar
