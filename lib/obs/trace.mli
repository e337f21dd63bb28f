(** Lightweight hierarchical trace spans.

    A trace is a forest of named spans timed with the OS monotonic clock
    (via bechamel's [clock_gettime(CLOCK_MONOTONIC)] stub, so wall-clock
    adjustments never produce negative durations).  Spans nest: starting a
    span while another is open makes it a child, like the phase structure
    of a query (align → optimize → execute).  Tags attach string key/value
    pairs to a span (method name, row counts, costs).

    Exporters render the forest as an indented text tree or as JSON
    (consumed by the CLI's [--json-out]); the JSON round-trips through
    {!Json.parse}. *)

type span

type t

(** [create ()] is an empty trace; its clock epoch is the creation time. *)
val create : unit -> t

(** [start t ?tags name] opens a span as a child of the innermost open
    span (or as a root) and returns it. *)
val start : t -> ?tags:(string * string) list -> string -> span

(** [finish t span] stops the span's clock and re-opens its parent.
    Finishing a span whose children are still open finishes them too. *)
val finish : t -> span -> unit

(** [with_span t ?tags name f] brackets [f ()] in a span; exception-safe. *)
val with_span : t -> ?tags:(string * string) list -> string -> (unit -> 'a) -> 'a

(** [add_tag span key value] appends a tag (last write wins on export). *)
val add_tag : span -> string -> string -> unit

(** [name span]. *)
val name : span -> string

(** [duration_s span] is the elapsed seconds, up to now for an open span. *)
val duration_s : span -> float

(** [roots t] are the top-level spans in start order. *)
val roots : t -> span list

(** [span_count t] is the total number of spans (open or finished) in the
    trace.  Traces are single-domain objects — the serving tier attaches a
    private trace to each in-flight query — and this count lets tests
    assert that per-query isolation. *)
val span_count : t -> int

(** [children span] in start order. *)
val children : span -> span list

(** [tags span] in insertion order. *)
val tags : span -> (string * string) list

(** [to_text t] is an indented tree, one span per line with duration and
    tags. *)
val to_text : t -> string

(** [to_json t] is [{"spans": [...]}]; each span carries [name],
    [start_ns] (relative to the trace epoch), [dur_ns], [tags] and
    [children]. *)
val to_json : t -> Json.t
