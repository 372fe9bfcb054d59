(** Streaming statistics and time series for experiment reporting. *)

(** Welford-style running summary of a scalar stream. *)
module Summary : sig
  type t

  val create : unit -> t

  val add : t -> float -> unit

  val count : t -> int

  val mean : t -> float
  (** 0 when empty. *)

  val variance : t -> float
  (** Sample variance; 0 with fewer than two observations. *)

  val stddev : t -> float

  val min : t -> float
  (** +inf when empty. *)

  val max : t -> float
  (** -inf when empty. *)

  val pp : Format.formatter -> t -> unit
end

(** Timestamped samples, for reproducing the paper's per-time plots. *)
module Series : sig
  type t

  val create : name:string -> t

  val name : t -> string

  val add : t -> Time.t -> float -> unit

  val length : t -> int

  val to_list : t -> (Time.t * float) list
  (** In insertion order. *)

  val values : t -> float array

  val summary : t -> Summary.t

  val bucket_mean : t -> bucket:Time.t -> (Time.t * float) list
  (** Mean of samples per time bucket, for compact plotting; buckets with no
      samples are omitted. *)
end

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [\[0,100\]]; sorts a copy.  Returns [nan] on
    an empty array. *)

(** Streaming quantile estimator with bounded memory.

    Keeps every sample exactly until [capacity] is reached, then degrades
    gracefully to uniform reservoir sampling (Vitter's algorithm R, driven by
    a deterministic {!Rng} stream so runs stay reproducible).  Built for the
    per-packet latency distributions of the benchmarks, where millions of
    samples must reduce to p50/p95/p99 without holding them all. *)
module Quantiles : sig
  type t

  val create : ?capacity:int -> ?seed:int -> unit -> t
  (** [capacity] defaults to 8192 retained samples; raises
      [Invalid_argument] when not positive. *)

  val add : t -> float -> unit

  val count : t -> int
  (** Total samples observed (not the retained subset size). *)

  val quantile : t -> float -> float
  (** [quantile t p] with [p] in [\[0,100\]]; [nan] when empty.  Exact until
      [capacity] samples, an unbiased estimate beyond. *)

  val p50 : t -> float

  val p95 : t -> float

  val p99 : t -> float

  val merge : t -> t -> t
  (** A fresh estimator over both retained sample sets. *)

  val pp : Format.formatter -> t -> unit
  (** ["p50=… p95=… p99=… (n=…)"]. *)
end

(** Fixed-width-bin histogram over a known range. *)
module Histogram : sig
  type t

  val create : lo:float -> hi:float -> bins:int -> t
  (** Raises [Invalid_argument] when [bins <= 0] or [hi <= lo]. *)

  val add : t -> float -> unit
  (** Out-of-range samples land in the first/last bin. *)

  val count : t -> int

  val bins : t -> (float * float * int) list
  (** [(lower, upper, count)] per bin, in order. *)

  val pp : Format.formatter -> t -> unit
  (** A small ASCII bar chart. *)
end

(** Integer-valued event counter. *)
module Counter : sig
  type t

  val create : unit -> t

  val incr : t -> unit

  val add : t -> int -> unit

  val get : t -> int
end
