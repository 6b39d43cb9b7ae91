(* Full-precision goldens for the fault and topology sweeps, recorded
   from the hand-written runners they were ported from
   (bench/exp_faults.ml [run_one], bench/exp_topology.ml
   [run_parking]/[run_revpath] at commit c1586cd, fast scale: 20 s
   fault runs with the fault at 8 s, 15 s topology runs).

   Only the cells that draw no randomness are pinned — CUBIC, Copa
   and LEDBAT-100 on the impairments with no random loss — so every
   value is independent of the run seed (each was recorded at two
   seeds and compared). Keys are the old BENCH_faults.json /
   BENCH_topology.json field names; the test maps them onto the
   scenario-metric keys that replace them. *)

type cell = {
  scenario : string;
  cc : string;
  values : (string * float) list;
}

let faults =
  [
    {
      scenario = "outage";
      cc = "cubic";
      values =
        [
          ("prefault_mbps", 0x1.40068db8bac72p+4);
          ("postfault_mbps", 0x1.3ffcb923a29c8p+4);
          ("recovery_s", 0x1p-2);
          ("fairness_jain", 0x1.f637b00883146p-1);
          ("loss_frac", 0x1.c0f5b6e94bca6p-7);
        ];
    };
    {
      scenario = "outage-flush";
      cc = "cubic";
      values =
        [
          ("prefault_mbps", 0x1.40068db8bac72p+4);
          ("postfault_mbps", 0x1.40068db8bac72p+4);
          ("recovery_s", 0x1p-2);
          ("fairness_jain", 0x1.e701993cdccaap-1);
          ("loss_frac", 0x1.fb922474852d4p-7);
        ];
    };
    {
      scenario = "bw-step";
      cc = "cubic";
      values =
        [
          ("prefault_mbps", 0x1.40068db8bac72p+4);
          ("postfault_mbps", 0x1.3ffcb923a29c9p+4);
          ("recovery_s", 0x1p-2);
          ("fairness_jain", 0x1.dc6d54034e177p-1);
          ("loss_frac", 0x1.aebeab0bc8783p-7);
        ];
    };
    {
      scenario = "outage";
      cc = "copa";
      values =
        [
          ("prefault_mbps", 0x1.3fcb923a29c7ap+4);
          ("postfault_mbps", 0x1.3fc1bda5119cfp+4);
          ("recovery_s", 0x1p-2);
          ("fairness_jain", 0x1.fffcd28d3d485p-1);
          ("loss_frac", 0x1.19a6f100a30fdp-9);
        ];
    };
    {
      scenario = "outage-flush";
      cc = "copa";
      values =
        [
          ("prefault_mbps", 0x1.3fcb923a29c7ap+4);
          ("postfault_mbps", 0x1.3fae147ae147cp+4);
          ("recovery_s", 0x1p-2);
          ("fairness_jain", 0x1.ffcdc581279e2p-1);
          ("loss_frac", 0x1.3255d91729124p-9);
        ];
    };
    {
      scenario = "bw-step";
      cc = "copa";
      values =
        [
          ("prefault_mbps", 0x1.3fcb923a29c7ap+4);
          ("postfault_mbps", 0x1.3fcb923a29c79p+4);
          ("recovery_s", 0x1p-2);
          ("fairness_jain", 0x1.fff5a6e78f79ap-1);
          ("loss_frac", 0x0p+0);
        ];
    };
    {
      scenario = "outage";
      cc = "ledbat-100";
      values =
        [
          ("prefault_mbps", 0x1.3ffcb923a29c9p+4);
          ("postfault_mbps", 0x1.3ffcb923a29c9p+4);
          ("recovery_s", 0x1p-2);
          ("fairness_jain", 0x1.f313461b085d8p-1);
          ("loss_frac", 0x1.474af159dfee3p-8);
        ];
    };
    {
      scenario = "outage-flush";
      cc = "ledbat-100";
      values =
        [
          ("prefault_mbps", 0x1.3ffcb923a29c9p+4);
          ("postfault_mbps", 0x1.40068db8bac72p+4);
          ("recovery_s", 0x1p-2);
          ("fairness_jain", 0x1.ffffcfb07da9fp-1);
          ("loss_frac", 0x1.751e2345f3259p-8);
        ];
    };
    {
      scenario = "bw-step";
      cc = "ledbat-100";
      values =
        [
          ("prefault_mbps", 0x1.3ffcb923a29c9p+4);
          ("postfault_mbps", 0x1.3ffcb923a29c9p+4);
          ("recovery_s", 0x1p-2);
          ("fairness_jain", 0x1.fa438ae8929b5p-1);
          ("loss_frac", 0x1.b0da5bde582a3p-9);
        ];
    };
  ]

let topology =
  [
    {
      scenario = "parking-lot";
      cc = "cubic";
      values =
        [
          ("tput_mbps", 0x1.2d3f7ced91687p+3);
          ("mean_rtt_ms", 0x1.f6706cb45a0d9p+6);
          ("loss_frac", 0x1.8ff5496e087b3p-10);
          ("scavenger_harm", 0x1.e3e988acf87acp-3);
        ];
    };
    {
      scenario = "rev-path";
      cc = "cubic";
      values =
        [
          ("tput_mbps", 0x1.c88e8a71de69bp+4);
          ("mean_rtt_ms", 0x1.f2671b0cb4158p+5);
          ("loss_frac", 0x1.85d34f13b9996p-8);
          ("scavenger_harm", 0x1.18a86d71f362p-4);
        ];
    };
    {
      scenario = "parking-lot";
      cc = "copa";
      values =
        [
          ("tput_mbps", 0x1.daee631f8a09p-1);
          ("mean_rtt_ms", 0x1.e3bb614cc06ep+6);
          ("loss_frac", 0x0p+0);
          ("scavenger_harm", 0x1.81abf1078808p-6);
        ];
    };
    {
      scenario = "rev-path";
      cc = "copa";
      values =
        [
          ("tput_mbps", 0x1.ed5cfaacd9e84p+0);
          ("mean_rtt_ms", 0x1.ca99a9ec3f73fp+5);
          ("loss_frac", 0x0p+0);
          ("scavenger_harm", 0x0p+0);
        ];
    };
    {
      scenario = "parking-lot";
      cc = "ledbat-100";
      values =
        [
          ("tput_mbps", 0x1.ba5e353f7ced9p+1);
          ("mean_rtt_ms", 0x1.e58162fc92ac4p+6);
          ("loss_frac", 0x1.3ba56004ee958p-12);
          ("scavenger_harm", 0x1.63910fe315338p-4);
        ];
    };
    {
      scenario = "rev-path";
      cc = "ledbat-100";
      values =
        [
          ("tput_mbps", 0x1.8474538ef34d7p+4);
          ("mean_rtt_ms", 0x1.df312e71bf7abp+5);
          ("loss_frac", 0x1.7004ac0f2f316p-14);
          ("scavenger_harm", 0x1.9b90ea9e6eecp-7);
        ];
    };
  ]
