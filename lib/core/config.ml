type t = {
  invite_flood_window : Dsim.Time.t;
  invite_flood_threshold : int;
  bye_inflight_timer : Dsim.Time.t;
  spam_ts_gap : int;
  spam_seq_gap : int;
  spam_silence_ts_gap : int;
  spam_reorder_tolerance : int;
  rtp_flood_window : Dsim.Time.t;
  rtp_flood_threshold : int;
  drdos_window : Dsim.Time.t;
  drdos_threshold : int;
  sip_transit_delay : Dsim.Time.t;
  rtp_transit_delay : Dsim.Time.t;
  sip_cpu_cost : Dsim.Time.t;
  rtp_cpu_cost : Dsim.Time.t;
  sip_state_bytes : int;
  rtp_state_bytes : int;
  closed_call_linger : Dsim.Time.t;
  flag_boundary_register : bool;
  max_calls : int;
  max_detectors : int;
  call_max_age : Dsim.Time.t;
  sweep_interval : Dsim.Time.t;
  degrade_high_water : int;
  degrade_low_water : int;
  chaos_inject_every : int;
}

let default =
  {
    invite_flood_window = Dsim.Time.of_sec 1.0;
    invite_flood_threshold = 6;
    (* One round trip across the testbed (≈100 ms) plus margin. *)
    bye_inflight_timer = Dsim.Time.of_ms 250.0;
    (* G.729 advances 160 ticks per 20 ms packet; allow ~0.5 s of silence
       suppression before calling a jump a spam injection. *)
    spam_ts_gap = 4000;
    spam_seq_gap = 50;
    (* A consecutive-sequence packet may jump this far in timestamp: a
       silence-suppression gap (the paper's codec config enables SAD).
       60 s of media clock at 8 kHz. *)
    spam_silence_ts_gap = 480_000;
    spam_reorder_tolerance = 8;
    rtp_flood_window = Dsim.Time.of_sec 1.0;
    (* G.729 at 20 ms packetization is 50 pps; 3x headroom. *)
    rtp_flood_threshold = 150;
    drdos_window = Dsim.Time.of_sec 10.0;
    drdos_threshold = 30;
    (* Two SIP messages (INVITE, 180) cross the inline vIDS during call
       setup; 50 ms each reproduces the paper's ≈100 ms setup penalty. *)
    sip_transit_delay = Dsim.Time.of_ms 50.0;
    rtp_transit_delay = Dsim.Time.of_ms 1.5;
    (* CPU busy time per message on the (333 MHz Sun Ultra 10) vIDS host;
       calibrated so the Figure-7 workload lands near the paper's 3.6%
       overhead: ~426k RTP + ~1.2k SIP messages over 7200 s. *)
    sip_cpu_cost = Dsim.Time.of_ms 20.0;
    rtp_cpu_cost = Dsim.Time.of_us 550;
    sip_state_bytes = 450;
    rtp_state_bytes = 40;
    closed_call_linger = Dsim.Time.of_sec 32.0;
    (* Registrations normally stay inside the enterprise; one crossing the
       boundary sensor is worth an operator's attention. *)
    flag_boundary_register = true;
    max_calls = 0;
    max_detectors = 0;
    call_max_age = Dsim.Time.zero;
    sweep_interval = Dsim.Time.zero;
    degrade_high_water = 0;
    degrade_low_water = 0;
    chaos_inject_every = 0;
  }

let passive t =
  { t with sip_transit_delay = Dsim.Time.zero; rtp_transit_delay = Dsim.Time.zero }

let governed t =
  {
    t with
    max_calls = 10_000;
    max_detectors = 10_000;
    (* An abandoned setup that has seen no progress for half an hour will
       never complete; §7.3's memory argument needs it reclaimed. *)
    call_max_age = Dsim.Time.of_sec 1800.0;
    sweep_interval = Dsim.Time.of_sec 60.0;
    degrade_high_water = 9_000;
    degrade_low_water = 8_000;
  }
