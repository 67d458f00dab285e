(** The project's one JSON codec: every document it persists or serves
    (result documents, certificates, manifests, journals, [SPACE.json],
    lint, metrics and serve bodies) is a {!value} tree printed by
    {!to_string}, and every document it reads back goes through
    {!parse}.

    {b Determinism contract.} {!to_string} emits object fields in list
    order and no whitespace; numbers print through {!float} (the
    shortest decimal that round-trips, integral values below [1e15]
    without a fraction, non-finite values as [null]) and [Int]s as
    [string_of_int] does. Equal trees therefore always print to
    identical bytes — the contract the campaign store's kill+resume
    determinism and the golden tests rest on — and
    [parse (to_string v) = Ok v] for every tree of finite numbers
    without [Int] (a tested property). *)

type value =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | Array of value list
  | Object of (string * value) list
  | Int of int
      (** Writer-side exact integer: printed like [string_of_int], so
          63-bit values such as job seeds keep every digit. {!parse}
          never produces it (it reads every number as a [Number]); the
          accessors below accept it wherever they accept a [Number]. *)

(** {2 Printer} *)

val float : float -> string
(** Shortest decimal that round-trips — equal floats always render to
    identical bytes. Non-finite values render as [null]. *)

val to_string : value -> string
(** Compact rendering under the determinism contract above. *)

(** {2 Reader}

    A strict RFC 8259 parser — objects, arrays, strings (with escapes,
    including [\uXXXX] with exactly four hex digits; surrogates only
    as well-formed pairs), numbers in the RFC grammar (no leading zeros, no bare [.],
    no [+] sign), the three literals. Numbers are [float]s, which
    round-trips every value {!float} prints. *)

val parse : string -> (value, string) result
(** Whole-input parse: trailing non-whitespace is an error, so a
    truncated (crash-interrupted) document never parses. Malformed
    input is an [Error], never an exception (tested on truncated and
    byte-mutated real documents; nesting depth is bounded only by the
    stack — a million nested arrays still parse to an [Error]). *)

val member : value -> string -> value option
(** Field of an [Object]; [None] on missing field or non-object. *)

val to_bool : value -> bool option
val to_number : value -> float option

val to_int : value -> int option
(** [Some] for an [Int], and for integral numbers within the exact
    float range. *)

val to_str : value -> string option
val to_list : value -> value list option
