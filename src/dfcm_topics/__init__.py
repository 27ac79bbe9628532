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
from .coherence import CoherenceReport, evaluate, load_word_vectors, tc_w2v
from .fcm import FcmConfig, FcmResult, fcm_fit, kmeans_init
from .svd import TruncatedSvd, back_project, project, truncated_svd
from .textprep import (
    CsrMatrix,
    DocTermMatrix,
    TokenStream,
    Vocabulary,
    build_vocabulary,
    clean_text,
    tokenize,
    tokenize_corpus,
    vectorize_tfidf,
)
from .topics import PipelineConfig, TopicSet, cluster_topics, detect, represent

__version__ = "0.1.0"
