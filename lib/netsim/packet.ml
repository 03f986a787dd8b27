(* A data packet traversing the network.

   The sender keeps each packet's send time and delivered-byte snapshot
   in its own outstanding ring (Flow_table), keyed by [seq]; the packet
   itself carries only what the link and the receiver need.

   [corrupt] marks a payload damaged in transit (set by the fault
   injector): the packet still consumes link capacity, but the receiver's
   checksum discards it, so no ACK comes back and the sender sees it as
   a loss. *)

type t = {
  flow : int;
  seq : int;
  size : int;
  corrupt : bool;
}
