#!/bin/sh
# Runs every table/figure reproduction binary in order. Performance is
# measured by perfbench (python3 perfbench/run.py), not here.
set -e
BUILD=${1:-build}
if [ $# -gt 0 ]; then shift; fi
for b in table1_configs table2_benchmarks fig01_ipc_traces \
         fig02_bb_exec_time fig03_bb_issue_retire fig04_warp_issue_retire \
         fig06_gpubbv_clusters fig08_bb_distribution \
         fig11_warp_distribution fig13_overall_r9nano fig14_overall_mi100 \
         fig15_sampling_levels fig16_real_world fig17_vgg_layers \
         tradeoff_online_offline ablation_thresholds; do
    echo "##### $b #####"
    "$BUILD/bench/$b" "$@"
done
echo "##### micro_components #####"
"$BUILD/bench/micro_components" --benchmark_min_time=0.2
