open Cal

type level = Full | Sampled | Count_only

let level_order = function Full -> 0 | Sampled -> 1 | Count_only -> 2

let level_to_string = function
  | Full -> "full"
  | Sampled -> "sampled"
  | Count_only -> "count-only"

let level_of_string = function
  | "full" -> Some Full
  | "sampled" -> Some Sampled
  | "count-only" -> Some Count_only
  | _ -> None

type input = Line of string | Tick

type evict_reason = Idle | Admission_pressure

type event =
  | Committed of { oid : Ids.Oid.t; ops : int }
  | Violation of { oid : Ids.Oid.t; op : int; reason : string }
  | Rejected_frame of { frame : int; reason : string }
  | Crash_seen of { epoch : int }
  | Level_change of { level : level; load : int }
  | Session_evicted of { oid : Ids.Oid.t; reason : evict_reason }
  | Session_desynced of { oid : Ids.Oid.t; reason : string }

(* Event reasons are embedded in one-line replies, so newlines (which
   would break the framing) are flattened. *)
let one_line s =
  String.map (function '\n' | '\r' -> ' ' | c -> c) s

(* Plain concatenation: every reply of the daemon goes through here. *)
let print_event = function
  | Committed { oid; ops } ->
      String.concat ""
        [ "committed oid="; Ids.Oid.to_string oid; " ops="; string_of_int ops ]
  | Violation { oid; op; reason } ->
      String.concat ""
        [ "violation oid="; Ids.Oid.to_string oid; " op="; string_of_int op;
          " reason="; one_line reason ]
  | Rejected_frame { frame; reason } ->
      String.concat ""
        [ "error frame="; string_of_int frame; " reason="; one_line reason ]
  | Crash_seen { epoch } -> "crash epoch=" ^ string_of_int epoch
  | Level_change { level; load } ->
      String.concat ""
        [ "level level="; level_to_string level; " load="; string_of_int load ]
  | Session_evicted { oid; reason } ->
      String.concat ""
        [ "evicted oid="; Ids.Oid.to_string oid; " reason=";
          (match reason with Idle -> "idle" | Admission_pressure -> "admission") ]
  | Session_desynced { oid; reason } ->
      String.concat ""
        [ "desynced oid="; Ids.Oid.to_string oid; " reason="; one_line reason ]
