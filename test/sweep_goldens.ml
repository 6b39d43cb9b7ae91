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

(* The paper figures' deterministic cells, recorded from the bespoke
   runners scenarios/paper replaced, at their default scale (60 s
   single-flow runs measured from 20 s; 80 s pairs with the scavenger
   at 80/6 s, measured from 80/3 s): [Exp_common.single_run] with the
   Fig. 3 buffers and Fig. 4's zero loss rate, and Fig. 6's primary-alone
   run ([Exp_fig6.alone_run]) and with-scavenger run (the body of
   [Exp_fig6.compete]), at commit 832ac73. The old code seeded the alone
   and with runs apart, so they are pinned separately. Only CUBIC, Copa
   and LEDBAT-100 on loss-free links: each value was recorded at two
   seeds (1 and 2; Fig. 6 at 1 and 14) and was the same at both. RTTs
   are in seconds, as the old code kept them. Combos are the grid
   bindings of scenarios/paper/FIG.scn. *)

type paper_cell = { combo : string; values : (string * float) list }

let fig3 =
  [
    {
      combo = "cc=cubic,buffer=4500";
      values =
        [
          ("tput_mbps", 0x1.58db22d0e5604p+5);
          ("p95_rtt_s", 0x1.f37d3abe424p-6);
        ];
    };
    {
      combo = "cc=cubic,buffer=9000";
      values =
        [
          ("tput_mbps", 0x1.6910cb295e9e2p+5);
          ("p95_rtt_s", 0x1.018e75791fcp-5);
        ];
    };
    {
      combo = "cc=cubic,buffer=15000";
      values =
        [
          ("tput_mbps", 0x1.6e7df3b645a1dp+5);
          ("p95_rtt_s", 0x1.07746887b04p-5);
        ];
    };
    {
      combo = "cc=cubic,buffer=26000";
      values =
        [
          ("tput_mbps", 0x1.76236e2eb1c43p+5);
          ("p95_rtt_s", 0x1.15379fa9744p-5);
        ];
    };
    {
      combo = "cc=cubic,buffer=45000";
      values =
        [
          ("tput_mbps", 0x1.8ad38ef34d6a1p+5);
          ("p95_rtt_s", 0x1.2ec6bce85bcp-5);
        ];
    };
    {
      combo = "cc=cubic,buffer=75000";
      values =
        [
          ("tput_mbps", 0x1.8e8aa64c2f838p+5);
          ("p95_rtt_s", 0x1.56191149074p-5);
        ];
    };
    {
      combo = "cc=cubic,buffer=150000";
      values =
        [
          ("tput_mbps", 0x1.8fff972474539p+5);
          ("p95_rtt_s", 0x1.b866e43a98p-5);
        ];
    };
    {
      combo = "cc=cubic,buffer=375000";
      values =
        [
          ("tput_mbps", 0x1.8fff972474539p+5);
          ("p95_rtt_s", 0x1.6eac86055b2p-4);
        ];
    };
    {
      combo = "cc=cubic,buffer=625000";
      values =
        [
          ("tput_mbps", 0x1.8fff972474539p+5);
          ("p95_rtt_s", 0x1.0870110a0a2p-3);
        ];
    };
    {
      combo = "cc=cubic,buffer=900000";
      values =
        [
          ("tput_mbps", 0x1.8fff972474539p+5);
          ("p95_rtt_s", 0x1.62e09fe85bap-3);
        ];
    };
    {
      combo = "cc=copa,buffer=4500";
      values =
        [
          ("tput_mbps", 0x1.9000346dc5d64p+5);
          ("p95_rtt_s", 0x1.f76bdcc7da8p-6);
        ];
    };
    {
      combo = "cc=copa,buffer=9000";
      values =
        [
          ("tput_mbps", 0x1.8ffb4a2339c0fp+5);
          ("p95_rtt_s", 0x1.ff2e48e8b58p-6);
        ];
    };
    {
      combo = "cc=copa,buffer=15000";
      values =
        [
          ("tput_mbps", 0x1.8ffb4a2339c0fp+5);
          ("p95_rtt_s", 0x1.ff2e48e8b58p-6);
        ];
    };
    {
      combo = "cc=copa,buffer=26000";
      values =
        [
          ("tput_mbps", 0x1.8ffaacd9e83e4p+5);
          ("p95_rtt_s", 0x1.ff2e48e8b58p-6);
        ];
    };
    {
      combo = "cc=copa,buffer=45000";
      values =
        [
          ("tput_mbps", 0x1.8e4985f06f694p+5);
          ("p95_rtt_s", 0x1.30be0ded312p-5);
        ];
    };
    {
      combo = "cc=copa,buffer=75000";
      values =
        [
          ("tput_mbps", 0x1.8ffb4a2339c0fp+5);
          ("p95_rtt_s", 0x1.ff2e48e8b58p-6);
        ];
    };
    {
      combo = "cc=copa,buffer=150000";
      values =
        [
          ("tput_mbps", 0x1.8ffb4a2339c0fp+5);
          ("p95_rtt_s", 0x1.ff2e48e8b58p-6);
        ];
    };
    {
      combo = "cc=copa,buffer=375000";
      values =
        [
          ("tput_mbps", 0x1.8ffb4a2339c0fp+5);
          ("p95_rtt_s", 0x1.ff2e48e8b58p-6);
        ];
    };
    {
      combo = "cc=copa,buffer=625000";
      values =
        [
          ("tput_mbps", 0x1.8ffb4a2339c0fp+5);
          ("p95_rtt_s", 0x1.ff2e48e8b58p-6);
        ];
    };
    {
      combo = "cc=copa,buffer=900000";
      values =
        [
          ("tput_mbps", 0x1.8ffb4a2339c0fp+5);
          ("p95_rtt_s", 0x1.ff2e48e8b58p-6);
        ];
    };
    {
      combo = "cc=ledbat-100,buffer=4500";
      values =
        [
          ("tput_mbps", 0x1.360346dc5d639p+5);
          ("p95_rtt_s", 0x1.f37d3abe424p-6);
        ];
    };
    {
      combo = "cc=ledbat-100,buffer=9000";
      values =
        [
          ("tput_mbps", 0x1.3aa8c154c985fp+5);
          ("p95_rtt_s", 0x1.ff2e48e895p-6);
        ];
    };
    {
      combo = "cc=ledbat-100,buffer=15000";
      values =
        [
          ("tput_mbps", 0x1.443a5e353f7cfp+5);
          ("p95_rtt_s", 0x1.077468879f8p-5);
        ];
    };
    {
      combo = "cc=ledbat-100,buffer=26000";
      values =
        [
          ("tput_mbps", 0x1.50bdd97f62b6bp+5);
          ("p95_rtt_s", 0x1.15379fa9744p-5);
        ];
    };
    {
      combo = "cc=ledbat-100,buffer=45000";
      values =
        [
          ("tput_mbps", 0x1.64bda5119ce07p+5);
          ("p95_rtt_s", 0x1.2ec6bce8488p-5);
        ];
    };
    {
      combo = "cc=ledbat-100,buffer=75000";
      values =
        [
          ("tput_mbps", 0x1.7a09374bc6a7fp+5);
          ("p95_rtt_s", 0x1.5421c04431ep-5);
        ];
    };
    {
      combo = "cc=ledbat-100,buffer=150000";
      values =
        [
          ("tput_mbps", 0x1.8eaf837b4a234p+5);
          ("p95_rtt_s", 0x1.b4784230ed8p-5);
        ];
    };
    {
      combo = "cc=ledbat-100,buffer=375000";
      values =
        [
          ("tput_mbps", 0x1.9000346dc5d64p+5);
          ("p95_rtt_s", 0x1.6cb535009d1p-4);
        ];
    };
    {
      combo = "cc=ledbat-100,buffer=625000";
      values =
        [
          ("tput_mbps", 0x1.9000346dc5d64p+5);
          ("p95_rtt_s", 0x1.c432ca57978p-4);
        ];
    };
    {
      combo = "cc=ledbat-100,buffer=900000";
      values =
        [
          ("tput_mbps", 0x1.9000346dc5d64p+5);
          ("p95_rtt_s", 0x1.c432ca57978p-4);
        ];
    };
  ]

let fig4 =
  [
    {
      combo = "cc=cubic,loss=0";
      values =
        [
          ("tput_mbps", 0x1.8fff972474539p+5);
        ];
    };
    {
      combo = "cc=copa,loss=0";
      values =
        [
          ("tput_mbps", 0x1.8ffb4a2339c0fp+5);
        ];
    };
    {
      combo = "cc=ledbat-100,loss=0";
      values =
        [
          ("tput_mbps", 0x1.9000346dc5d64p+5);
        ];
    };
  ]

let fig6 =
  [
    {
      combo = "scav=ledbat-100,primary=cubic,buffer=75000";
      values =
        [
          ("alone_tput", 0x1.8e3f141205bc1p+5);
          ("alone_p95_s", 0x1.561911491dp-5);
          ("with_tput", 0x1.044226809d496p+5);
          ("with_p95_s", 0x1.5810624dc6cp-5);
          ("scav_tput", 0x1.129ab9f559b3dp+4);
        ];
    };
    {
      combo = "scav=ledbat-100,primary=cubic,buffer=375000";
      values =
        [
          ("alone_tput", 0x1.90005bc01a36fp+5);
          ("alone_p95_s", 0x1.6eac86055b2p-4);
          ("with_tput", 0x1.15076c8b43958p+5);
          ("with_p95_s", 0x1.6eac86055b2p-4);
          ("scav_tput", 0x1.ebe3bcd35a85ap+3);
        ];
    };
    {
      combo = "scav=ledbat-100,primary=copa,buffer=75000";
      values =
        [
          ("alone_tput", 0x1.8ffb4a2339c1p+5);
          ("alone_p95_s", 0x1.ff2e48e8d6p-6);
          ("with_tput", 0x1.76648e8a71de8p+3);
          ("with_p95_s", 0x1.4a4d2b2bf2p-5);
          ("scav_tput", 0x1.190154c985f07p+5);
        ];
    };
    {
      combo = "scav=ledbat-100,primary=copa,buffer=375000";
      values =
        [
          ("alone_tput", 0x1.8ffad42c3c9fp+5);
          ("alone_p95_s", 0x1.ff2e48e8d6p-6);
          ("with_tput", 0x1.ffc6a7ef9db24p+0);
          ("with_p95_s", 0x1.65d3996fc9p-4);
          ("scav_tput", 0x1.8001b089a0276p+5);
        ];
    };
    {
      combo = "scav=copa,primary=cubic,buffer=75000";
      values =
        [
          ("alone_tput", 0x1.8e3f141205bc1p+5);
          ("alone_p95_s", 0x1.561911491dp-5);
          ("with_tput", 0x1.6b6b851eb852p+5);
          ("with_p95_s", 0x1.5810624dc6cp-5);
          ("scav_tput", 0x1.247318fc50481p+2);
        ];
    };
    {
      combo = "scav=copa,primary=cubic,buffer=375000";
      values =
        [
          ("alone_tput", 0x1.90005bc01a36fp+5);
          ("alone_p95_s", 0x1.6eac86055b2p-4);
          ("with_tput", 0x1.7cdbc01a36e3p+5);
          ("with_p95_s", 0x1.70a3d70a47dp-4);
          ("scav_tput", 0x1.3249ba5e353f8p+1);
        ];
    };
    {
      combo = "scav=copa,primary=copa,buffer=75000";
      values =
        [
          ("alone_tput", 0x1.8ffb4a2339c1p+5);
          ("alone_p95_s", 0x1.ff2e48e8d6p-6);
          ("with_tput", 0x1.941999999999bp+4);
          ("with_p95_s", 0x1.07746887b04p-5);
          ("scav_tput", 0x1.8ba113404ea4cp+4);
        ];
    };
    {
      combo = "scav=copa,primary=copa,buffer=375000";
      values =
        [
          ("alone_tput", 0x1.8ffad42c3c9fp+5);
          ("alone_p95_s", 0x1.ff2e48e8d6p-6);
          ("with_tput", 0x1.9410624dd2f1cp+4);
          ("with_p95_s", 0x1.07746887b04p-5);
          ("scav_tput", 0x1.8bad0e560418ap+4);
        ];
    };
  ]

(* Fig. 5's and Fig. 8's deterministic cells, recorded the same way
   from [Exp_fig5.fairness] (Jain's index over [15n, 15n + 100) s of n
   flows started 15 s apart on a 20n Mbps / 30 ms / 300n KB link) and
   from the body of [Exp_common.pair_run] as [Exp_fig8] called it (80 s
   pairs, CUBIC primary alone at seed 7 and with a LEDBAT-100 scavenger
   from 80/6 s at seed 1007, measured from 80/3 s) over the 24 default
   [Exp_fig8.grid] rows, at commit 23de2df. Each value was the same at
   seeds 1 and 2 (Fig. 8: 7 and 1, each with its + 1000 partner). *)

let fig5 =
  [
    {
      combo = "cc=cubic,n=2,bw=40,buffer=600000,from=30,until=130";
      values = [ ("jain", 0x1.fb72e3ba72066p-1) ];
    };
    {
      combo = "cc=cubic,n=4,bw=80,buffer=1200000,from=60,until=160";
      values = [ ("jain", 0x1.ff2b6cc2ec249p-1) ];
    };
    {
      combo = "cc=cubic,n=6,bw=120,buffer=1800000,from=90,until=190";
      values = [ ("jain", 0x1.fc63a21fae175p-1) ];
    };
    {
      combo = "cc=cubic,n=8,bw=160,buffer=2400000,from=120,until=220";
      values = [ ("jain", 0x1.fc4e7eab0e842p-1) ];
    };
    {
      combo = "cc=cubic,n=10,bw=200,buffer=3000000,from=150,until=250";
      values = [ ("jain", 0x1.f932d6cdc55bcp-1) ];
    };
    {
      combo = "cc=copa,n=2,bw=40,buffer=600000,from=30,until=130";
      values = [ ("jain", 0x1.fff2aa1935249p-1) ];
    };
    {
      combo = "cc=copa,n=4,bw=80,buffer=1200000,from=60,until=160";
      values = [ ("jain", 0x1.ff808c6d5f381p-1) ];
    };
    {
      combo = "cc=copa,n=6,bw=120,buffer=1800000,from=90,until=190";
      values = [ ("jain", 0x1.ffebf6f0d9a8p-1) ];
    };
    {
      combo = "cc=copa,n=8,bw=160,buffer=2400000,from=120,until=220";
      values = [ ("jain", 0x1.fff4e610ff12ep-1) ];
    };
    {
      combo = "cc=copa,n=10,bw=200,buffer=3000000,from=150,until=250";
      values = [ ("jain", 0x1.fff1fffb6b387p-1) ];
    };
    {
      combo = "cc=ledbat-100,n=2,bw=40,buffer=600000,from=30,until=130";
      values = [ ("jain", 0x1.f1b6133ba56c5p-1) ];
    };
    {
      combo = "cc=ledbat-100,n=4,bw=80,buffer=1200000,from=60,until=160";
      values = [ ("jain", 0x1.7b44b668b0164p-1) ];
    };
    {
      combo = "cc=ledbat-100,n=6,bw=120,buffer=1800000,from=90,until=190";
      values = [ ("jain", 0x1.3d77d9a16440ep-1) ];
    };
    {
      combo = "cc=ledbat-100,n=8,bw=160,buffer=2400000,from=120,until=220";
      values = [ ("jain", 0x1.1c14df9159b5bp-1) ];
    };
    {
      combo = "cc=ledbat-100,n=10,bw=200,buffer=3000000,from=150,until=250";
      values = [ ("jain", 0x1.091e15b0d0268p-1) ];
    };
    {
      combo = "cc=ledbat-25,n=2,bw=40,buffer=600000,from=30,until=130";
      values = [ ("jain", 0x1.110b18dd08b1ap-1) ];
    };
    {
      combo = "cc=ledbat-25,n=4,bw=80,buffer=1200000,from=60,until=160";
      values = [ ("jain", 0x1.0c5fbd1b3c651p-1) ];
    };
    {
      combo = "cc=ledbat-25,n=6,bw=120,buffer=1800000,from=90,until=190";
      values = [ ("jain", 0x1.2c24a4abee467p-1) ];
    };
    {
      combo = "cc=ledbat-25,n=8,bw=160,buffer=2400000,from=120,until=220";
      values = [ ("jain", 0x1.0c32288810c4p-1) ];
    };
    {
      combo = "cc=ledbat-25,n=10,bw=200,buffer=3000000,from=150,until=250";
      values = [ ("jain", 0x1.09dabd7f7ed71p-1) ];
    };
  ]

let fig8 =
  [
    {
      combo = "primary=cubic,scav=ledbat-100,bw=20,rtt=10,buffer=12500";
      values =
        [
          ("alone_tput", 0x1.40001a36e2eb2p+4);
          ("with_tput", 0x1.413886594af4fp+3);
          ("scav_tput", 0x1.3e027525460aap+3);
        ];
    };
    {
      combo = "primary=cubic,scav=ledbat-100,bw=20,rtt=10,buffer=50000";
      values =
        [
          ("alone_tput", 0x1.3fff2e48e8a72p+4);
          ("with_tput", 0x1.8ddd63886594cp+3);
          ("scav_tput", 0x1.e441f212d7733p+2);
        ];
    };
    {
      combo = "primary=cubic,scav=ledbat-100,bw=20,rtt=30,buffer=37500";
      values =
        [
          ("alone_tput", 0x1.40001a36e2eb2p+4);
          ("with_tput", 0x1.958ded288ce71p+3);
          ("scav_tput", 0x1.d3617c1bda513p+2);
        ];
    };
    {
      combo = "primary=cubic,scav=ledbat-100,bw=20,rtt=30,buffer=150000";
      values =
        [
          ("alone_tput", 0x1.40001a36e2eb2p+4);
          ("with_tput", 0x1.8fc226809d496p+3);
          ("scav_tput", 0x1.e07c1bda5119ep+2);
        ];
    };
    {
      combo = "primary=cubic,scav=ledbat-100,bw=20,rtt=100,buffer=125000";
      values =
        [
          ("alone_tput", 0x1.40001a36e2eb2p+4);
          ("with_tput", 0x1.0474d6a161e5p+4);
          ("scav_tput", 0x1.dc353f7ced918p+1);
        ];
    };
    {
      combo = "primary=cubic,scav=ledbat-100,bw=20,rtt=100,buffer=500000";
      values =
        [
          ("alone_tput", 0x1.40001a36e2eb2p+4);
          ("with_tput", 0x1.ecb98c7e28242p+3);
          ("scav_tput", 0x1.268d4fdf3b646p+2);
        ];
    };
    {
      combo = "primary=cubic,scav=ledbat-100,bw=50,rtt=10,buffer=31250";
      values =
        [
          ("alone_tput", 0x1.8fffe5c91d14fp+5);
          ("with_tput", 0x1.e28a57a786c23p+4);
          ("scav_tput", 0x1.3c02f837b4a23p+4);
        ];
    };
    {
      combo = "primary=cubic,scav=ledbat-100,bw=50,rtt=10,buffer=125000";
      values =
        [
          ("alone_tput", 0x1.8fffe5c91d14fp+5);
          ("with_tput", 0x1.cccdb8bac710ep+4);
          ("scav_tput", 0x1.533212d773191p+4);
        ];
    };
    {
      combo = "primary=cubic,scav=ledbat-100,bw=50,rtt=30,buffer=93750";
      values =
        [
          ("alone_tput", 0x1.90005bc01a36fp+5);
          ("with_tput", 0x1.b05205bc01a38p+4);
          ("scav_tput", 0x1.6d3dd97f62b6cp+4);
        ];
    };
    {
      combo = "primary=cubic,scav=ledbat-100,bw=50,rtt=30,buffer=375000";
      values =
        [
          ("alone_tput", 0x1.90005bc01a36fp+5);
          ("with_tput", 0x1.15076c8b43958p+5);
          ("scav_tput", 0x1.ebe3bcd35a85ap+3);
        ];
    };
    {
      combo = "primary=cubic,scav=ledbat-100,bw=50,rtt=100,buffer=312500";
      values =
        [
          ("alone_tput", 0x1.8fffe5c91d14fp+5);
          ("with_tput", 0x1.53f32617c1bdbp+5);
          ("scav_tput", 0x1.e05e9e1b089a1p+2);
        ];
    };
    {
      combo = "primary=cubic,scav=ledbat-100,bw=50,rtt=100,buffer=1250000";
      values =
        [
          ("alone_tput", 0x1.8fffe5c91d14fp+5);
          ("with_tput", 0x1.7bde4f765fd8cp+5);
          ("scav_tput", 0x1.4219652bd3c36p+1);
        ];
    };
    {
      combo = "primary=cubic,scav=ledbat-100,bw=100,rtt=10,buffer=62500";
      values =
        [
          ("alone_tput", 0x1.8fffe5c91d14fp+6);
          ("with_tput", 0x1.176aacd9e83e4p+6);
          ("scav_tput", 0x1.e1afec56d5cfcp+4);
        ];
    };
    {
      combo = "primary=cubic,scav=ledbat-100,bw=100,rtt=10,buffer=250000";
      values =
        [
          ("alone_tput", 0x1.8fffe5c91d14fp+6);
          ("with_tput", 0x1.db19db22d0e57p+5);
          ("scav_tput", 0x1.44e5f06f69446p+5);
        ];
    };
    {
      combo = "primary=cubic,scav=ledbat-100,bw=100,rtt=30,buffer=187500";
      values =
        [
          ("alone_tput", 0x1.8fffe5c91d14fp+6);
          ("with_tput", 0x1.05ba29c779a6cp+6);
          ("scav_tput", 0x1.136f27bb2fec5p+5);
        ];
    };
    {
      combo = "primary=cubic,scav=ledbat-100,bw=100,rtt=30,buffer=750000";
      values =
        [
          ("alone_tput", 0x1.8fffe5c91d14fp+6);
          ("with_tput", 0x1.512ac083126ebp+6);
          ("scav_tput", 0x1.f6a92a3055327p+3);
        ];
    };
    {
      combo = "primary=cubic,scav=ledbat-100,bw=100,rtt=100,buffer=625000";
      values =
        [
          ("alone_tput", 0x1.8fffe5c91d14fp+6);
          ("with_tput", 0x1.6ff56d5cfaacfp+6);
          ("scav_tput", 0x1.0053c36113405p+3);
        ];
    };
    {
      combo = "primary=cubic,scav=ledbat-100,bw=100,rtt=100,buffer=2500000";
      values =
        [
          ("alone_tput", 0x1.8fffe5c91d14fp+6);
          ("with_tput", 0x1.7d06d5cfaacdbp+6);
          ("scav_tput", 0x1.2f90ff9724745p+2);
        ];
    };
    {
      combo = "primary=cubic,scav=ledbat-100,bw=300,rtt=10,buffer=187500";
      values =
        [
          ("alone_tput", 0x1.2bfffb15b573fp+8);
          ("with_tput", 0x1.6423b2fec56d7p+7);
          ("scav_tput", 0x1.e4127bb2fec58p+6);
        ];
    };
    {
      combo = "primary=cubic,scav=ledbat-100,bw=300,rtt=10,buffer=750000";
      values =
        [
          ("alone_tput", 0x1.2bfffb15b573fp+8);
          ("with_tput", 0x1.acc851eb851edp+7);
          ("scav_tput", 0x1.566f487fcb925p+6);
        ];
    };
    {
      combo = "primary=cubic,scav=ledbat-100,bw=300,rtt=30,buffer=562500";
      values =
        [
          ("alone_tput", 0x1.2bfffb15b573fp+8);
          ("with_tput", 0x1.c34dd97f62b6cp+7);
          ("scav_tput", 0x1.28fa027525461p+6);
        ];
    };
    {
      combo = "primary=cubic,scav=ledbat-100,bw=300,rtt=30,buffer=2250000";
      values =
        [
          ("alone_tput", 0x1.2bfffb15b573fp+8);
          ("with_tput", 0x1.112de353f7ceep+8);
          ("scav_tput", 0x1.ad217c1bda513p+4);
        ];
    };
    {
      combo = "primary=cubic,scav=ledbat-100,bw=300,rtt=100,buffer=1875000";
      values =
        [
          ("alone_tput", 0x1.2bfffb15b573fp+8);
          ("with_tput", 0x1.1f39916872b02p+8);
          ("scav_tput", 0x1.98cd35a858795p+3);
        ];
    };
    {
      combo = "primary=cubic,scav=ledbat-100,bw=300,rtt=100,buffer=7500000";
      values =
        [
          ("alone_tput", 0x1.2bfffb15b573fp+8);
          ("with_tput", 0x1.26675a858793ep+8);
          ("scav_tput", 0x1.6628240b78035p+2);
        ];
    };
  ]
