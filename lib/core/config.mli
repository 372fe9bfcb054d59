(** vIDS tunables: detection thresholds (the timers of paper §6/§7.5) and the
    calibrated per-packet cost model (paper §7.2–§7.4). *)

type t = {
  (* --- INVITE flooding (Figure 4) --- *)
  invite_flood_window : Dsim.Time.t;
      (** Timer T1 of the pattern: the measurement window. *)
  invite_flood_threshold : int;
      (** N: INVITEs to one destination within the window considered normal. *)
  (* --- BYE DoS / billing fraud (Figure 5) --- *)
  bye_inflight_timer : Dsim.Time.t;
      (** Timer T: grace period for in-flight RTP after a BYE; the paper
          recommends about one round-trip time. *)
  (* --- Media spamming (Figure 6) --- *)
  spam_ts_gap : int;
      (** Δt: allowed forward jump in RTP timestamp ticks between
          consecutive packets of a stream. *)
  spam_seq_gap : int;  (** Δn: allowed forward jump in sequence numbers. *)
  spam_silence_ts_gap : int;
      (** Allowed timestamp jump when the sequence number is consecutive —
          a talkspurt after silence suppression (RFC 3550 marker
          semantics).  The paper's raw Figure-6 rule (ts gap alone) would
          false-alarm on the G.729 VAD its own testbed enables. *)
  spam_reorder_tolerance : int;
      (** Allowed backward distance before a packet counts as replay. *)
  (* --- RTP flooding --- *)
  rtp_flood_window : Dsim.Time.t;
  rtp_flood_threshold : int;  (** Packets per window per stream. *)
  (* --- DRDoS reflection --- *)
  drdos_window : Dsim.Time.t;
  drdos_threshold : int;
      (** Orphan responses (no known transaction) per destination per
          window. *)
  (* --- Cost model (calibrated; see DESIGN.md §4) --- *)
  sip_transit_delay : Dsim.Time.t;
      (** Added forwarding latency per SIP message when deployed inline. *)
  rtp_transit_delay : Dsim.Time.t;
  sip_cpu_cost : Dsim.Time.t;  (** Host CPU busy time per SIP message. *)
  rtp_cpu_cost : Dsim.Time.t;
  (* --- Memory model (paper §7.3) --- *)
  sip_state_bytes : int;  (** ≈450 B of SIP call state. *)
  rtp_state_bytes : int;  (** ≈40 B of RTP state. *)
  (* --- Housekeeping --- *)
  closed_call_linger : Dsim.Time.t;
      (** How long a completed call record survives before deletion (it
          absorbs late retransmissions). *)
  flag_boundary_register : bool;
      (** Raise a registration-hijack warning for REGISTER requests seen at
          the boundary sensor (legitimate registrations stay inside the
          enterprise LAN; roaming users are the false-positive risk, hence
          Warning severity). *)
  (* --- Resource governance (state exhaustion defense) --- *)
  max_calls : int;
      (** Hard cap on tracked calls; the oldest record is evicted when a new
          call would exceed it.  [0] disables the cap. *)
  max_detectors : int;
      (** Combined cap on standalone detector machines (flood, spam, DRDoS);
          oldest-first eviction.  [0] disables the cap. *)
  call_max_age : Dsim.Time.t;
      (** Records older than this are reclaimed by the scheduled sweep —
          abandoned setups and machines parked in attack states.  [zero]
          disables age-based reclamation. *)
  sweep_interval : Dsim.Time.t;
      (** Period of the scheduled ageing sweep.  [zero] disables it. *)
  degrade_high_water : int;
      (** When active state records (calls + detectors) reach this mark the
          engine degrades: stream-level RTP analysis is shed while SIP
          signaling checks stay live.  [0] disables degradation. *)
  degrade_low_water : int;
      (** Occupancy at which a degraded engine recovers.  [0] derives it as
          three quarters of the high-water mark. *)
  chaos_inject_every : int;
      (** Self-test knob: raise a synthetic fault inside the containment
          boundary on every [n]-th machine injection, proving that a crashing
          machine is quarantined rather than fatal.  [0] (the default) never
          injects. *)
}

val default : t

val passive : t -> t
(** Same thresholds, zero transit delay — vIDS as a pure monitor. *)

val governed : t -> t
(** Same thresholds with resource governance enabled: caps on tracked calls
    and detectors, a periodic ageing sweep, and degradation watermarks. *)
