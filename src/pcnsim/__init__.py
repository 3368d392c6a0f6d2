"""Payment channel network simulator and timing-privacy toolkit."""
