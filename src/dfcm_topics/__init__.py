"""Topic detection with deep-autoencoder-based and eigenspace-based fuzzy c-means."""

from .autoencoder import (
    AutoencoderModel,
    TrainConfig,
    build_autoencoder,
    decode,
    encode,
    fine_tune,
    greedy_pretrain,
    load_checkpoint,
)
from .coherence import CoherenceReport, WordVectorStore, evaluate, load_word_vectors, tc_w2v
from .fcm import FcmConfig, FcmResult, fcm_fit, kmeans_init
from .svd import TruncatedSvd, back_project, project, truncated_svd
from .textprep import (
    DocTermMatrix,
    Vocabulary,
    build_vocabulary,
    clean_text,
    tokenize,
    vectorize_tfidf,
)
from .topics import PipelineConfig, Topic, TopicSet, cluster_topics, detect, represent

__version__ = "0.1.0"
