(** Neiger's set-linearizability (PODC 1994), related work §6.

    Set-linearizability explains a history by a sequence of {e sets} of
    simultaneous operations on a single object — exactly a CA-trace without
    the multi-object structure and without view functions. The paper notes
    that CAL generalises it (Neiger gave neither a formal definition nor a
    proof technique); we realise set-linearizability as the CAL checker
    applied to a one-object specification and expose a direct constructor
    for specifications given as a predicate on simultaneity classes. *)

val spec_of_classes :
  name:string ->
  oid:Ids.Oid.t ->
  max_class_size:int ->
  legal_class:(Op.t list -> bool) ->
  candidates:(universe:Value.t list Lazy.t -> Op.pending -> Value.t list) ->
  Spec.t
(** A stateless set-sequential specification: a trace is legal when every
    simultaneity class satisfies [legal_class]. (Stateful specifications
    can be built with {!Spec.make} directly.) *)

val check : spec:Spec.t -> History.t -> Cal_checker.verdict
(** [check ~spec h] decides set-linearizability: identical to
    {!Cal_checker.check} restricted to specifications over one object.
    Raises [Invalid_argument] if the history mentions several objects. *)

val is_set_linearizable : spec:Spec.t -> History.t -> bool
