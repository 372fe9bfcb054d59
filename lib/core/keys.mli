(** Names of event parameters, state variables and synchronization messages
    shared by the protocol machines and the event distributor. *)

(** {1 Event parameter names (the input vector x̄)} *)

val src_ip : string

val src_port : string

val dst_ip : string

val dst_port : string

val code : string
(** Response status code (int). *)

val cseq_method : string

val cseq_number : string

val call_id : string

val from_tag : string

val to_tag : string

val branch : string

val contact_host : string
(** Host of the Contact header, when present. *)

val media_host : string
(** From an SDP body, when present. *)

val media_port : string

val media_pt : string
(** First offered payload type. *)

val ssrc : string

val seq : string

val ts : string

val payload_type : string

val size : string

(** {1 Event names} *)

val response : string
(** All SIP responses arrive as this event; guards read [code]. *)

val rtp_packet : string

(** {1 Synchronization messages (the δ events of Figures 2 and 5)} *)

val delta_media_offer : string
(** SIP → RTP: caller's media description from the INVITE. *)

val delta_media_answer : string
(** SIP → RTP: callee's media description from the 2xx. *)

val delta_bye : string
(** SIP → RTP: a BYE passed through; argument [bye_sender_ip]. *)

val bye_sender_ip : string

(** {1 Machine names within a call's system} *)

val sip_machine : string

val rtp_machine : string

(** {1 Detector machines (one instance per key, outside any call)} *)

val invite_flood_machine : string

val media_spam_machine : string

val drdos_machine : string

val orphan_response : string
(** Event the engine feeds {!drdos_machine} for a SIP response that
    matches no known call. *)

(** {1 States of the [.vspec] machines the engine acts on} *)

val st_rtp_init : string
(** The RTP machine's initial state: no media was ever negotiated. *)

val st_cancel_dos : string

val st_hijack : string

val st_bye_dos : string

val st_billing_fraud : string

val st_invite_flood : string

val st_media_spam : string

val st_rtp_flood : string

val st_drdos : string

(** {1 Global (cross-machine) variable names} *)

val g_caller_media : string

val g_callee_media : string

val g_codec : string
